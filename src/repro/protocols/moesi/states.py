"""MOESI protocol states.

MOESI extends MESI with an **Owned** state on both sides of the directory:

* at the L1, ``OWNED`` marks a *dirty shared* copy — the line has been
  modified relative to the L2/memory, but other cores hold (clean) Shared
  copies.  The owner services read forwards out of its dirty copy instead of
  writing the data back, so read-sharing of modified data costs one forward
  instead of a writeback plus refetch;
* at the directory, ``OWNED`` records that a tracked owner holds the only
  up-to-date data *and* a sharer set exists alongside it, so reads forward
  to the owner and writes must both invalidate the sharers and recall
  ownership.

As with MESI, transient behaviour lives in the pending-transaction /
blocked-line machinery of :mod:`repro.protocols.base`; these enums are the
stable states only.
"""

from __future__ import annotations

from enum import Enum


class MOESIL1State(Enum):
    """Stable states of a line in a private L1 cache under MOESI.

    Members carry ``is_private`` and ``category`` as plain attributes, like
    :class:`~repro.protocols.mesi.states.MESIL1State`.  Owned is *not*
    private (sharers exist, so a write needs an upgrade) and has its own
    ``"owned"`` category.
    """

    SHARED = "S"
    EXCLUSIVE = "E"
    OWNED = "O"
    MODIFIED = "M"


for _state in MOESIL1State:
    _state.is_private = _state in (MOESIL1State.EXCLUSIVE, MOESIL1State.MODIFIED)
    _state.category = {MOESIL1State.SHARED: "shared",
                       MOESIL1State.OWNED: "owned"}.get(_state, "private")


class MOESIDirState(Enum):
    """Stable directory states of a line in the shared L2 under MOESI."""

    VALID = "V"          # valid in L2, no L1 copies
    SHARED = "S"         # one or more L1 sharers, L2 data is current
    EXCLUSIVE = "E"      # a single L1 owner, no sharers
    OWNED = "O"          # a dirty L1 owner plus a sharer set; L2 data stale
