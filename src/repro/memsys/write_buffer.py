"""FIFO store (write) buffer.

The write buffer is what makes a core's memory model TSO rather than SC:
committed stores are queued FIFO and drain to the cache lazily, while loads
may bypass the buffer — except that a load to an address with a pending store
must return the youngest pending store's value (store-to-load forwarding).

The buffer itself is purely a data structure; the timing of draining is
driven by :class:`repro.cpu.core_model.CoreModel`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, Optional


@dataclass
class StoreBufferEntry:
    """A single pending store.

    Attributes:
        address: byte address written.
        value: value written.
        issue_time: simulation time at which the store was committed into
            the buffer (used for occupancy statistics).
        is_rmw: whether the entry stems from an atomic read-modify-write
            (RMWs never actually sit in the buffer under TSO, but the flag is
            kept for completeness and assertions).
    """

    address: int
    value: int
    issue_time: int = 0
    is_rmw: bool = False


class WriteBuffer:
    """A bounded FIFO store buffer with store-to-load forwarding.

    Args:
        capacity: maximum number of pending stores (Table 2 uses 32).

    Attributes:
        entries: the pending stores, oldest first.  Read-only for callers;
            the core model tests it for emptiness on every load.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity <= 0:
            raise ValueError("write buffer capacity must be positive")
        self.capacity = capacity
        self.entries: Deque[StoreBufferEntry] = deque()
        self.total_enqueued = 0
        self.max_occupancy_seen = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[StoreBufferEntry]:
        return iter(self.entries)

    @property
    def is_empty(self) -> bool:
        """``True`` when no stores are pending."""
        return not self.entries

    @property
    def is_full(self) -> bool:
        """``True`` when the buffer cannot accept another store."""
        return len(self.entries) >= self.capacity

    def enqueue(self, entry: StoreBufferEntry) -> None:
        """Append a committed store at the tail of the buffer.

        Raises:
            RuntimeError: if the buffer is full (the core model must stall
                instead of calling enqueue on a full buffer).
        """
        if self.is_full:
            raise RuntimeError("write buffer overflow: enqueue on a full buffer")
        self.entries.append(entry)
        self.total_enqueued += 1
        self.max_occupancy_seen = max(self.max_occupancy_seen, len(self.entries))

    def head(self) -> Optional[StoreBufferEntry]:
        """Return (without removing) the oldest pending store, or ``None``."""
        return self.entries[0] if self.entries else None

    def dequeue(self) -> StoreBufferEntry:
        """Remove and return the oldest pending store.

        Raises:
            RuntimeError: if the buffer is empty.
        """
        if not self.entries:
            raise RuntimeError("write buffer underflow: dequeue on an empty buffer")
        return self.entries.popleft()

    def forward(self, address: int) -> Optional[int]:
        """Return the value of the *youngest* pending store to ``address``,
        or ``None`` if no pending store matches (load must read the cache).

        This models TSO's requirement that a core's own loads see its own
        stores even while those stores are still buffered.
        """
        for entry in reversed(self.entries):
            if entry.address == address:
                return entry.value
        return None

    def clear(self) -> None:
        """Drop all pending stores (used only by tests)."""
        self.entries.clear()
