"""Coherence protocol framework and the bundled protocols.

* :mod:`repro.protocols.base` — the controller interfaces shared by every
  protocol plus base classes with the plumbing (message sending, per-line
  transaction tracking, request blocking, install/evict/writeback paths,
  recall collection, memory fetches) so each concrete controller is only its
  state machine.
* :mod:`repro.protocols.registry` — the class-based plugin registry:
  :class:`Protocol`, :func:`register_protocol`, :func:`get_protocol` and the
  ``PAPER_CONFIGURATIONS`` mapping (``MESI``, ``CC-shared-to-L2``,
  ``TSO-CC-4-basic``, ``TSO-CC-4-noreset``, ``TSO-CC-4-12-3``,
  ``TSO-CC-4-12-0``, ``TSO-CC-4-9-3``).
* :mod:`repro.protocols.mesi` — the MESI directory protocol with a full
  sharing vector: the paper's baseline.
* :mod:`repro.protocols.tsocc` — the TSO-CC protocol family: the paper's
  contribution.
* :mod:`repro.protocols.msi` — an MSI baseline (MESI minus E) added purely
  through the plugin API; the worked example for adding protocols.
* :mod:`repro.protocols.moesi` — MOESI (MESI + Owned): owner forwarding and
  dirty sharing on top of the MESI machine.
* :mod:`repro.protocols.broadcast` — a directory-less broadcast-snooping
  strawman for the traffic figures.
* :mod:`repro.protocols.tsocc.variants` — programmatically generated,
  registered TSO-CC sweep variants, published as variant groups consumed by
  the sweep subsystem (:mod:`repro.analysis.sweeps`).
* :mod:`repro.protocols.storage` — the cross-protocol storage-overhead
  calculator (Figure 2 / Table 1) over the plugins.

Importing this package registers the bundled protocols; the import order of
the plugin packages below fixes the registry (and therefore figure) order.
"""

from repro.protocols.base import (
    BaseL1Controller,
    BaseL2Controller,
    L1ControllerInterface,
    L2ControllerInterface,
    PendingTransaction,
)
from repro.protocols.registry import (
    PAPER_CONFIGURATIONS,
    VARIANT_GROUPS,
    Protocol,
    get_protocol,
    list_protocol_names,
    register_configuration,
    register_protocol,
    register_variants,
    registered_protocols,
    variant_group,
)

# Plugin registration (order defines the registry / figure order).
import repro.protocols.mesi       # noqa: E402,F401  (registers MESI)
import repro.protocols.tsocc      # noqa: E402,F401  (registers the TSO-CC family)
import repro.protocols.msi        # noqa: E402,F401  (registers MSI, in_paper=False)
import repro.protocols.moesi      # noqa: E402,F401  (registers MOESI, in_paper=False)
import repro.protocols.broadcast  # noqa: E402,F401  (registers Broadcast, in_paper=False)
# Named sweep variants (registered last so the paper configurations keep
# their registry order); publishes the tsocc-* variant groups.
import repro.protocols.tsocc.variants  # noqa: E402,F401

from repro.protocols.storage import StorageModel  # noqa: E402

__all__ = [
    "L1ControllerInterface",
    "L2ControllerInterface",
    "BaseL1Controller",
    "BaseL2Controller",
    "PendingTransaction",
    "Protocol",
    "PAPER_CONFIGURATIONS",
    "VARIANT_GROUPS",
    "StorageModel",
    "get_protocol",
    "list_protocol_names",
    "register_protocol",
    "register_configuration",
    "register_variants",
    "registered_protocols",
    "variant_group",
]
