"""MESI protocol states.

Transient behaviour (waiting for data, waiting for acknowledgements, waiting
for a recalled owner) is represented by the pending-transaction / blocked-line
machinery of :mod:`repro.protocols.base` rather than by explicit transient
state enum members; the enums here are the *stable* states of the protocol.
"""

from __future__ import annotations

from enum import Enum


class MESIL1State(Enum):
    """Stable states of a line in a private L1 cache under MESI.

    Each member carries two plain attributes, read on every L1 hit:
    ``is_private`` (Exclusive/Modified: the core may write silently) and
    ``category``, the statistics category (``"shared"`` or ``"private"``).
    """

    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"


for _state in MESIL1State:
    _state.is_private = _state is not MESIL1State.SHARED
    _state.category = "shared" if _state is MESIL1State.SHARED else "private"


class MESIDirState(Enum):
    """Stable directory states of a line in the shared L2."""

    VALID = "V"          # valid in L2, no L1 copies
    SHARED = "S"         # one or more L1 sharers (tracked in the sharing vector)
    EXCLUSIVE = "E"      # a single L1 owner (may have modified the line)
