"""MSI protocol states.

The L1 drops MESI's Exclusive state: a line is either an untracked-clean
Shared copy or the single Modified copy.  The directory states are shared
with MESI (:class:`~repro.protocols.mesi.states.MESIDirState`): the
directory still tracks "no copies / sharer set / single owner", the MSI
difference being that the single-owner state is only ever entered for
writes.
"""

from __future__ import annotations

from enum import Enum

from repro.protocols.mesi.states import MESIDirState

#: MSI reuses the MESI directory states (VALID / SHARED / EXCLUSIVE-owner).
MSIDirState = MESIDirState


class MSIL1State(Enum):
    """Stable states of a line in a private L1 cache under MSI.

    Members carry ``is_private`` (only Modified: MSI has no clean-private
    state) and ``category`` (``"shared"`` or ``"private"``) as plain
    attributes, like :class:`~repro.protocols.mesi.states.MESIL1State`.
    """

    SHARED = "S"
    MODIFIED = "M"


for _state in MSIL1State:
    _state.is_private = _state is MSIL1State.MODIFIED
    _state.category = "shared" if _state is MSIL1State.SHARED else "private"
