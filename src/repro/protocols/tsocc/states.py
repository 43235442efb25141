"""TSO-CC protocol states.

As with the MESI implementation, transient behaviour is represented by the
pending-transaction (L1) and blocked-line (L2) machinery of
:mod:`repro.protocols.base`; the enums here are the stable states of §3.2 and
§3.4 of the paper.
"""

from __future__ import annotations

from enum import Enum


class TSOCCL1State(Enum):
    """Stable states of a line in a private L1 cache under TSO-CC.

    Members carry ``is_private`` (Exclusive/Modified: the core may write
    silently) and ``category`` (``"shared"``, ``"shared_ro"`` or
    ``"private"``) as plain attributes, like
    :class:`~repro.protocols.mesi.states.MESIL1State`.
    """

    SHARED = "S"          # untracked shared copy; hits bounded by the access counter
    SHARED_RO = "SRO"     # shared read-only copy (§3.4); never self-invalidated
    EXCLUSIVE = "E"       # private, clean
    MODIFIED = "M"        # private, dirty


for _state in TSOCCL1State:
    _state.is_private = _state in (TSOCCL1State.EXCLUSIVE, TSOCCL1State.MODIFIED)
    _state.category = {TSOCCL1State.SHARED: "shared",
                       TSOCCL1State.SHARED_RO: "shared_ro"}.get(_state, "private")


class TSOCCL2State(Enum):
    """Stable states of a line in the shared L2 under TSO-CC.

    ``b.owner`` (the :attr:`repro.memsys.cacheline.CacheLine.owner` field) is
    interpreted per state exactly as in Table 1 of the paper: the owner
    pointer for ``EXCLUSIVE`` lines, the last writer for ``SHARED`` lines and
    (via ``CacheLine.sharers``) the coarse sharer groups for ``SHARED_RO``.
    """

    UNCACHED = "U"        # valid in L2, no (tracked) L1 copies
    EXCLUSIVE = "E"       # a single L1 owner (tracked via the owner pointer)
    SHARED = "S"          # untracked L1 copies may exist
    SHARED_RO = "SRO"     # shared read-only; coarse sharer groups tracked
