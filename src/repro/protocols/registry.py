"""Class-based protocol registry: coherence protocols as plugins.

Every coherence protocol in this repository is packaged as a
:class:`Protocol` plugin that bundles together

* a display **name** (the configuration names of the paper's figures) and a
  family **kind** (``"mesi"``, ``"tsocc"``, ``"msi"`` ...),
* the **L1/L2 controller classes** plus any per-protocol constructor
  arguments (e.g. the :class:`~repro.protocols.tsocc.config.TSOCCConfig`),
* the **storage-overhead model** of Table 1 / Figure 2
  (:meth:`Protocol.overhead_bits`), and
* **metadata hooks** the analysis layer keys off (``is_baseline``,
  ``has_directory``, ``self_invalidates``, ``uses_timestamps``).

Protocol families register themselves with the :func:`register_protocol`
class decorator; the :class:`~repro.sim.system.System` builder instantiates
controllers purely through the plugin API and contains no protocol-specific
branches.  Adding a protocol therefore never touches the system builder, the
CLI or the experiment matrix — see the "Adding a protocol" section of
EXPERIMENTS.md (the MSI baseline in :mod:`repro.protocols.msi` is the worked
example).
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, List, Optional, Sequence, Type

#: Protocol families by ``kind`` (one entry per :func:`register_protocol`).
PROTOCOL_FAMILIES: Dict[str, Type["Protocol"]] = {}

#: Named protocol configurations (every instance returned by the families'
#: :meth:`Protocol.configurations`), in registration order.
_REGISTRY: Dict[str, "Protocol"] = {}

#: The configurations evaluated in the paper, in the order of the figures.
#: (A subset of the full registry: protocols registered with
#: ``in_paper=False`` — such as the MSI demonstrator — are runnable
#: everywhere but excluded from the default experiment matrix.)
PAPER_CONFIGURATIONS: Dict[str, "Protocol"] = {}

#: Named variant groups: ``group name -> configuration names`` published via
#: :func:`register_variants`.  A group collects the named configurations one
#: sensitivity-sweep axis ranges over (e.g. the timestamp-width family); the
#: sweep subsystem (:mod:`repro.analysis.sweeps`) references groups instead
#: of hard-coding configuration lists.
VARIANT_GROUPS: Dict[str, List[str]] = {}


class Protocol:
    """Base class for coherence-protocol plugins.

    A *family* (subclass) provides the controller classes and the storage
    model; an *instance* is one named, runnable configuration of that family
    (e.g. ``TSO-CC-4-12-3``).  Families with a single configuration (MESI,
    MSI) are registered as one instance.

    Class attributes (family-level metadata):

    Attributes:
        kind: short family slug; unique across registered families.
        is_baseline: ``True`` for the paper's baseline (MESI).
        has_directory: the L2 embeds a sharer-tracking directory whose
            storage grows with the core count.
        self_invalidates: the L1 self-invalidates Shared lines (lazy
            coherence); figures 7/9 only apply to such protocols.
        in_paper: include this configuration in ``PAPER_CONFIGURATIONS``
            (and therefore in the default experiment matrix).
        l1_controller_cls / l2_controller_cls: concrete controller classes
            built by :meth:`make_l1_controller` / :meth:`make_l2_controller`.
    """

    kind: ClassVar[str] = ""
    is_baseline: ClassVar[bool] = False
    has_directory: ClassVar[bool] = False
    self_invalidates: ClassVar[bool] = False
    in_paper: ClassVar[bool] = True
    l1_controller_cls: ClassVar[Optional[type]] = None
    l2_controller_cls: ClassVar[Optional[type]] = None

    #: Per-protocol configuration object (``None`` for config-less families).
    config: Optional[Any] = None

    @property
    def name(self) -> str:
        """Display name of this configuration (defaults to the config's
        ``name`` attribute, else the family kind in upper case)."""
        if self.config is not None and getattr(self.config, "name", None):
            return self.config.name
        return self.kind.upper()

    @property
    def uses_timestamps(self) -> bool:
        """Whether this configuration carries coherence timestamps."""
        return bool(self.config is not None
                    and getattr(self.config, "use_timestamps", False))

    # -- construction hooks ---------------------------------------------------

    @classmethod
    def configurations(cls) -> Sequence["Protocol"]:
        """Instances to register when the family is registered.  Default:
        one argument-less instance."""
        return (cls(),)

    def l1_extra_args(self, system_config) -> Dict[str, Any]:
        """Protocol-specific constructor kwargs for the L1 controller."""
        return {}

    def l2_extra_args(self, system_config) -> Dict[str, Any]:
        """Protocol-specific constructor kwargs for the L2 controller."""
        return {}

    def make_l1_controller(self, system_config, **common):
        """Build one private-cache controller (called by ``System``)."""
        if self.l1_controller_cls is None:
            raise NotImplementedError(f"{self.name}: no L1 controller class")
        return self.l1_controller_cls(**common,
                                      **self.l1_extra_args(system_config))

    def make_l2_controller(self, system_config, **common):
        """Build one shared-cache tile controller (called by ``System``)."""
        if self.l2_controller_cls is None:
            raise NotImplementedError(f"{self.name}: no L2 controller class")
        return self.l2_controller_cls(**common,
                                      **self.l2_extra_args(system_config))

    # -- storage model --------------------------------------------------------

    def overhead_bits(self, system_config) -> int:
        """Total coherence storage (bits) on the given platform (Table 1 /
        Figure 2); implemented by each family."""
        raise NotImplementedError

    # -- presentation ---------------------------------------------------------

    def config_summary(self) -> str:
        """One-line summary of the per-protocol configuration."""
        if self.config is not None and hasattr(self.config, "describe"):
            return self.config.describe()
        return "-"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Protocol {self.name} kind={self.kind}>"


def register_protocol(cls: Type[Protocol]) -> Type[Protocol]:
    """Class decorator: register a protocol family and its configurations.

    Raises:
        ValueError: on a duplicate family ``kind`` or configuration name.
    """
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must define a non-empty 'kind'")
    if cls.kind in PROTOCOL_FAMILIES:
        raise ValueError(f"protocol kind {cls.kind!r} is already registered")
    # Validate every configuration name before mutating anything, so a
    # clashing family leaves the registry untouched and can be re-registered
    # after the fix.
    configurations = list(cls.configurations())
    names = [protocol.name for protocol in configurations]
    clashes = [name for name in names if name in _REGISTRY]
    if clashes or len(set(names)) != len(names):
        raise ValueError(
            f"protocol kind {cls.kind!r} declares clashing configuration "
            f"names: {clashes or names}"
        )
    PROTOCOL_FAMILIES[cls.kind] = cls
    for protocol in configurations:
        register_configuration(protocol)
    return cls


def register_configuration(protocol: Protocol) -> Protocol:
    """Register one named protocol configuration.

    Raises:
        ValueError: if the name is already taken.
    """
    if protocol.name in _REGISTRY:
        raise ValueError(f"protocol {protocol.name!r} is already registered")
    _REGISTRY[protocol.name] = protocol
    if protocol.in_paper:
        PAPER_CONFIGURATIONS[protocol.name] = protocol
    return protocol


def register_variants(group: str, protocols: Sequence) -> List[str]:
    """Publish a named **variant group**: the configurations one sweep axis
    ranges over.

    Each entry is either a :class:`Protocol` instance to register (it is
    forced to ``in_paper=False`` — variants never join the default paper
    matrix) or the *name* of an already-registered configuration (so groups
    can include paper configurations such as ``TSO-CC-4-12-3`` without
    re-registering them).  Returns the group's configuration names in order.

    Raises:
        KeyError: when a name entry is not a registered configuration.
        ValueError: when an instance entry clashes with a registered name.
    """
    names: List[str] = []
    for protocol in protocols:
        if isinstance(protocol, str):
            if protocol not in _REGISTRY:
                raise KeyError(
                    f"variant group {group!r} references unknown "
                    f"configuration {protocol!r}"
                )
            names.append(protocol)
            continue
        # Validate before mutating: flipping in_paper on an instance that
        # turns out to be already registered (register_configuration would
        # raise) must not corrupt the registered plugin.
        if protocol.name in _REGISTRY:
            raise ValueError(
                f"protocol {protocol.name!r} is already registered; "
                f"reference it by name to include it in group {group!r}"
            )
        protocol.in_paper = False
        register_configuration(protocol)
        names.append(protocol.name)
    members = VARIANT_GROUPS.setdefault(group, [])
    for name in names:
        if name not in members:
            members.append(name)
    return names


def variant_group(group: str) -> List[str]:
    """Configuration names of one variant group.

    Raises:
        KeyError: for an unknown group name.
    """
    if group not in VARIANT_GROUPS:
        raise KeyError(
            f"unknown variant group {group!r}; known: "
            f"{', '.join(VARIANT_GROUPS) or '(none)'}"
        )
    return list(VARIANT_GROUPS[group])


def unregister_configuration(name: str) -> None:
    """Remove a named configuration (used by tests registering throwaway
    protocols; the family entry, if any, is left in place)."""
    _REGISTRY.pop(name, None)
    PAPER_CONFIGURATIONS.pop(name, None)
    for members in VARIANT_GROUPS.values():
        if name in members:
            members.remove(name)


def registered_protocols() -> List[Protocol]:
    """Every registered protocol configuration, in registration order."""
    return list(_REGISTRY.values())


def list_protocol_names() -> List[str]:
    """Names of every registered protocol configuration."""
    return list(_REGISTRY)


def get_protocol(name_or_protocol) -> Protocol:
    """Resolve a protocol given by name, :class:`Protocol` instance or
    :class:`~repro.protocols.tsocc.config.TSOCCConfig` into a plugin.

    Raises:
        KeyError: for an unknown configuration name.
        TypeError: for an unsupported argument type.
    """
    if isinstance(name_or_protocol, Protocol):
        return name_or_protocol
    if isinstance(name_or_protocol, str):
        if name_or_protocol not in _REGISTRY:
            raise KeyError(
                f"unknown protocol {name_or_protocol!r}; "
                f"known: {', '.join(_REGISTRY)}"
            )
        return _REGISTRY[name_or_protocol]
    # Ad-hoc TSO-CC configurations (tests build narrow-timestamp variants on
    # the fly) resolve to an unregistered instance of the tsocc family.
    from repro.protocols.tsocc.config import TSOCCConfig

    if isinstance(name_or_protocol, TSOCCConfig):
        return PROTOCOL_FAMILIES["tsocc"](name_or_protocol)
    raise TypeError(f"cannot resolve protocol from {name_or_protocol!r}")
