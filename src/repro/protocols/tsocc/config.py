"""TSO-CC protocol configuration.

The paper evaluates a family of configurations named
``TSO-CC-<Bmaxacc>-<Bts>-<Bwrite-group>`` plus two degenerate protocols
(``CC-shared-to-L2`` and ``TSO-CC-4-basic``) — see §4.2.  All of them are
expressed as instances of :class:`TSOCCConfig`; module-level constants
provide the exact configurations used in the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class TSOCCConfig:
    """Parameters of the TSO-CC protocol.

    Attributes:
        name: configuration name used in reports and figures.
        max_acc_bits: width of the per-line access counter ``b.acnt``
            (``Bmaxacc``); a Shared line may be read at most
            ``2**max_acc_bits`` times before it must be re-requested from the
            L2.  ``0`` means Shared lines may never hit in the L1
            (the ``CC-shared-to-L2`` strawman).
        use_timestamps: enable the transitive-reduction optimization (§3.3).
        ts_bits: timestamp width ``Bts`` in bits; ``None`` models unbounded
            timestamps (the ``noreset`` configuration).
        write_group_bits: ``Bwrite-group``; contiguous groups of
            ``2**write_group_bits`` writes share one timestamp value.
        use_shared_ro: enable the shared read-only optimization (§3.4).
        decay_writes: number of writes (as reflected by timestamps) after
            which an unmodified Shared line decays to SharedRO; ``None``
            disables decay.  The paper uses 256.
        epoch_bits: width of the epoch-id counter used to disambiguate
            timestamp resets (§3.5).
        ts_table_entries: capacity of the per-core last-seen timestamp table
            ``ts_L1``; ``None`` means one entry per core (no eviction).
        sro_uses_l2_timestamps: give SharedRO responses L2-sourced
            timestamps (§3.4); requires ``use_timestamps``.
    """

    name: str = "TSO-CC"
    max_acc_bits: int = 4
    use_timestamps: bool = True
    ts_bits: Optional[int] = 12
    write_group_bits: int = 3
    use_shared_ro: bool = True
    decay_writes: Optional[int] = 256
    epoch_bits: int = 3
    ts_table_entries: Optional[int] = None
    sro_uses_l2_timestamps: bool = True

    def __post_init__(self) -> None:
        if self.max_acc_bits < 0:
            raise ValueError("max_acc_bits must be >= 0")
        if self.write_group_bits < 0:
            raise ValueError("write_group_bits must be >= 0")
        if self.ts_bits is not None and self.ts_bits < 2:
            raise ValueError("ts_bits must be >= 2 (or None for unbounded)")
        if self.decay_writes is not None and self.decay_writes < 1:
            raise ValueError("decay_writes must be >= 1 (or None)")
        if not self.use_timestamps and self.decay_writes is not None:
            raise ValueError("decay requires timestamps (set decay_writes=None)")
        if self.sro_uses_l2_timestamps and not self.use_shared_ro:
            raise ValueError("sro_uses_l2_timestamps requires use_shared_ro")

    # -- derived quantities -------------------------------------------------

    @property
    def max_shared_hits(self) -> int:
        """Maximum consecutive L1 hits allowed on a Shared line."""
        return (1 << self.max_acc_bits) if self.max_acc_bits > 0 else 0

    @property
    def write_group_size(self) -> int:
        """Number of contiguous writes sharing one timestamp value."""
        return 1 << self.write_group_bits

    @property
    def decay_timestamp_delta(self) -> Optional[int]:
        """Decay threshold expressed in timestamp units (write-group aware)."""
        if self.decay_writes is None:
            return None
        return max(1, self.decay_writes // self.write_group_size)

    def with_name(self, name: str) -> "TSOCCConfig":
        """Return a copy with a different display name."""
        return replace(self, name=name)

    def describe(self) -> str:
        """Return a one-line human-readable description."""
        ts = "inf" if self.ts_bits is None else str(self.ts_bits)
        return (
            f"{self.name}: acc={self.max_acc_bits}b ts={ts}b "
            f"group={self.write_group_size} sharedRO={self.use_shared_ro} "
            f"decay={self.decay_writes}"
        )


#: CC-shared-to-L2 (§4.2): no sharing vector, Shared lines never hit in L1,
#: SharedRO optimization enabled (without decay — no timestamps).
CC_SHARED_TO_L2 = TSOCCConfig(
    name="CC-shared-to-L2",
    max_acc_bits=0,
    use_timestamps=False,
    ts_bits=None,
    write_group_bits=0,
    use_shared_ro=True,
    decay_writes=None,
    sro_uses_l2_timestamps=False,
)

#: TSO-CC-4-basic (§3.2 + SharedRO opt.): access counter only, no timestamps.
TSO_CC_4_BASIC = TSOCCConfig(
    name="TSO-CC-4-basic",
    max_acc_bits=4,
    use_timestamps=False,
    ts_bits=None,
    write_group_bits=0,
    use_shared_ro=True,
    decay_writes=None,
    sro_uses_l2_timestamps=False,
)

#: TSO-CC-4-noreset: idealised unbounded timestamps, write-group size 1.
TSO_CC_4_NORESET = TSOCCConfig(
    name="TSO-CC-4-noreset",
    max_acc_bits=4,
    use_timestamps=True,
    ts_bits=None,
    write_group_bits=0,
    use_shared_ro=True,
    decay_writes=256,
)

#: TSO-CC-4-12-3: the paper's best realistic configuration.
TSO_CC_4_12_3 = TSOCCConfig(
    name="TSO-CC-4-12-3",
    max_acc_bits=4,
    use_timestamps=True,
    ts_bits=12,
    write_group_bits=3,
    use_shared_ro=True,
    decay_writes=256,
)

#: TSO-CC-4-12-0: write-group size reduced to 1.
TSO_CC_4_12_0 = TSOCCConfig(
    name="TSO-CC-4-12-0",
    max_acc_bits=4,
    use_timestamps=True,
    ts_bits=12,
    write_group_bits=0,
    use_shared_ro=True,
    decay_writes=256,
)

#: TSO-CC-4-9-3: timestamp width reduced to 9 bits.
TSO_CC_4_9_3 = TSOCCConfig(
    name="TSO-CC-4-9-3",
    max_acc_bits=4,
    use_timestamps=True,
    ts_bits=9,
    write_group_bits=3,
    use_shared_ro=True,
    decay_writes=256,
)

#: All TSO-CC-family configurations evaluated in the paper, in figure order.
PAPER_TSOCC_CONFIGS = (
    CC_SHARED_TO_L2,
    TSO_CC_4_BASIC,
    TSO_CC_4_NORESET,
    TSO_CC_4_12_3,
    TSO_CC_4_12_0,
    TSO_CC_4_9_3,
)
