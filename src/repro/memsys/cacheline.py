"""Cache line containers.

A :class:`CacheLine` stores everything the simulator needs to know about one
cached block:

* the line-aligned address,
* a protocol *state* (an enum member supplied by whichever protocol owns the
  cache — MESI states for the baseline, TSO-CC states for the contribution),
* the functional *data* held by the line (a mapping from byte offset within
  the line to the value last written at that offset), and
* protocol metadata used by TSO-CC: the per-line access counter ``acnt``,
  the last-written timestamp ``ts``, the id of the last writer, and for L2
  lines the owner / coarse-sharer-vector field ``owner``.

Data values are modelled at *word* granularity keyed by byte offset; the
workloads in this repository always read and write whole words at aligned
offsets, which is sufficient to observe staleness, forwarding and coherence
behaviour functionally (the property the paper had to add to gem5 by hand,
see §4.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass(slots=True)
class CacheLine:
    """One cache line (block) and its protocol metadata.

    Slotted: every fill allocates one.

    Attributes:
        address: line-aligned byte address of the block.
        state: protocol state (enum member); ``None`` when uninitialised.
        data: mapping from byte offset within the line to the stored value.
        dirty: whether the local copy has been modified relative to the
            next level of the hierarchy.
        acnt: TSO-CC per-line access counter (number of hits consumed since
            the line was last (re-)fetched from the shared cache).
        ts: TSO-CC last-written timestamp carried by the line (``None`` when
            the line has no valid timestamp, e.g. it was never written since
            the L2 obtained its copy).
        ts_epoch: epoch-id associated with ``ts`` (used to detect timestamps
            from a previous epoch after a timestamp reset).
        last_writer: id of the core that last wrote the line (``None`` if
            unknown / never written).
        owner: protocol-defined owner field.  For the TSO-CC L2 this is the
            ``b.owner`` field of Table 1: the owner pointer for Exclusive
            lines, the last writer for Shared lines and the coarse sharing
            vector for SharedRO lines.  For the MESI directory it is the
            owner pointer.
        sharers: directory sharer set (MESI) or coarse sharer groups
            (TSO-CC SharedRO), depending on the owning protocol.
    """

    address: int
    state: Any = None
    data: Dict[int, int] = field(default_factory=dict)
    dirty: bool = False
    acnt: int = 0
    ts: Optional[int] = None
    ts_epoch: Optional[int] = None
    last_writer: Optional[int] = None
    owner: Optional[int] = None
    sharers: set = field(default_factory=set)

    def read_word(self, offset: int) -> int:
        """Return the value stored at ``offset`` (0 if never written)."""
        return self.data.get(offset, 0)

    def write_word(self, offset: int, value: int) -> None:
        """Store ``value`` at byte offset ``offset`` and mark the line dirty."""
        self.data[offset] = value
        self.dirty = True

    def merge_data(self, other_data: Dict[int, int]) -> None:
        """Overwrite this line's data with ``other_data`` (a full copy of the
        most recent values, e.g. carried by a data response message)."""
        self.data = dict(other_data)

    def copy_data(self) -> Dict[int, int]:
        """Return a copy of the line's data suitable for embedding in a
        message payload."""
        return dict(self.data)

    def reset_metadata(self) -> None:
        """Clear protocol metadata (used when a line is recycled)."""
        self.dirty = False
        self.acnt = 0
        self.ts = None
        self.ts_epoch = None
        self.last_writer = None
        self.owner = None
        self.sharers = set()
