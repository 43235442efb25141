"""Set-associative cache arrays.

:class:`CacheArray` is the tag/data array used by both L1 caches and L2 tiles.
It stores :class:`~repro.memsys.cacheline.CacheLine` objects, handles set
indexing through an :class:`~repro.memsys.address.AddressMap`, and delegates
victim selection to a :class:`~repro.memsys.replacement.ReplacementPolicy`.

The array itself is protocol-agnostic; protocol controllers interpret line
states and decide what to do with victims returned by :meth:`CacheArray.insert`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.memsys.address import AddressMap, is_power_of_two
from repro.memsys.cacheline import CacheLine
from repro.memsys.replacement import ReplacementPolicy, make_replacement_policy


@dataclass
class CacheLookupResult:
    """Result of a cache lookup: whether it hit, and the line if present."""

    hit: bool
    line: Optional[CacheLine]


class CacheArray:
    """A set-associative array of :class:`CacheLine` objects.

    Args:
        size_bytes: total capacity in bytes.
        assoc: associativity (ways per set).
        address_map: shared address arithmetic helper.
        replacement: replacement policy instance or name (default LRU).
        name: human-readable name used in statistics and error messages.
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        address_map: AddressMap,
        replacement: ReplacementPolicy | str = "lru",
        name: str = "cache",
    ) -> None:
        if size_bytes <= 0 or assoc <= 0:
            raise ValueError("size_bytes and assoc must be positive")
        if size_bytes % (assoc * address_map.line_size) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"assoc*line_size = {assoc * address_map.line_size}"
            )
        num_sets = size_bytes // (assoc * address_map.line_size)
        if not is_power_of_two(num_sets):
            raise ValueError(
                f"{name}: number of sets ({num_sets}) must be a power of two"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.num_sets = num_sets
        self.address_map = address_map
        if isinstance(replacement, str):
            self.replacement = make_replacement_policy(replacement)
        else:
            self.replacement = replacement
        # sets[set_index][way] -> CacheLine or None.  A set's way list is
        # created by its first fill; ``None`` stands for a set never filled.
        self._sets: List[Optional[List[Optional[CacheLine]]]] = [None] * num_sets
        # line_address -> resident line, in fill order.  A line's way is
        # found by scanning its set (see _locate), which only removals and
        # touches need.
        self._lines: Dict[int, CacheLine] = {}
        self._line_mask = address_map.line_mask
        # Set index of an address: its line number masked to num_sets (a
        # power of two, checked above), as AddressMap.set_index computes.
        self._set_shift = address_map.offset_bits
        self._set_mask = num_sets - 1

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        """Number of valid lines currently resident."""
        return len(self._lines)

    def __contains__(self, address: int) -> bool:
        return self.address_map.line_address(address) in self._lines

    def lookup(self, address: int, touch: bool = True) -> CacheLookupResult:
        """Look up the line containing ``address``.

        Args:
            address: any byte address within the line.
            touch: whether to update replacement state on a hit.
        """
        line = self._lines.get(address & self._line_mask)
        if line is None:
            return CacheLookupResult(hit=False, line=None)
        if touch:
            self.replacement.touch(*self._locate(line))
        return CacheLookupResult(hit=True, line=line)

    def get_line(self, address: int) -> Optional[CacheLine]:
        """Return the resident line containing ``address`` or ``None``.

        Equivalent to ``lookup(address, touch=False).line`` without the
        per-call result object — this is the controllers' hottest query.
        """
        return self._lines.get(address & self._line_mask)

    def lines(self) -> List[CacheLine]:
        """Return every resident line (a new list, in fill order)."""
        return list(self._lines.values())

    def _locate(self, line: CacheLine) -> Tuple[int, int]:
        """``(set_index, way)`` of a resident line."""
        set_index = (line.address >> self._set_shift) & self._set_mask
        for way, resident in enumerate(self._sets[set_index]):
            if resident is line:
                return set_index, way
        raise RuntimeError(f"{self.name}: line {line.address:#x} is not resident")

    def set_occupancy(self, address: int) -> int:
        """Return the number of valid lines in the set that ``address`` maps
        to (useful in tests and for conflict statistics)."""
        ways = self._sets[(address >> self._set_shift) & self._set_mask]
        return 0 if ways is None else sum(1 for line in ways if line is not None)

    # -- mutation ---------------------------------------------------------

    def insert(
        self,
        line: CacheLine,
        victim_filter: Optional[Callable[[CacheLine], bool]] = None,
    ) -> Optional[CacheLine]:
        """Insert ``line``; return the evicted victim line, if any.

        If the line's address is already resident, the resident entry is
        replaced in place and no victim is produced.

        Args:
            line: the line to insert (its ``address`` must be line-aligned).
            victim_filter: optional predicate restricting which resident
                lines may be chosen as victims (e.g. a protocol may forbid
                evicting lines in transient states).  If no candidate
                satisfies the filter, a :class:`RuntimeError` is raised.
        """
        line_addr = line.address
        if line_addr & self._line_mask != line_addr:
            raise ValueError(
                f"{self.name}: inserted line address {line.address:#x} is not "
                f"aligned to {self.address_map.line_size} bytes"
            )
        existing = self._lines.get(line_addr)
        if existing is not None:
            set_index, way = self._locate(existing)
            self._sets[set_index][way] = line
            self._lines[line_addr] = line
            self.replacement.touch(set_index, way)
            return None

        set_index = (line_addr >> self._set_shift) & self._set_mask
        ways = self._sets[set_index]
        if ways is None:
            ways = self._sets[set_index] = [None] * self.assoc
        for way, resident in enumerate(ways):
            if resident is None:
                ways[way] = line
                self._lines[line_addr] = line
                self.replacement.fill(set_index, way)
                return None

        victim_way = self._victim_way(set_index, ways, victim_filter)
        if victim_way is None:
            raise RuntimeError(
                f"{self.name}: no evictable victim in set {set_index} "
                f"for line {line_addr:#x}"
            )
        victim = ways[victim_way]
        del self._lines[victim.address]
        self.replacement.invalidate(set_index, victim_way)
        ways[victim_way] = line
        self._lines[line_addr] = line
        self.replacement.fill(set_index, victim_way)
        return victim

    def needs_eviction(self, address: int) -> bool:
        """Return ``True`` if inserting a line for ``address`` would require
        evicting a resident line (i.e. the target set is full and the address
        is not already resident)."""
        if address & self._line_mask in self._lines:
            return False
        ways = self._sets[(address >> self._set_shift) & self._set_mask]
        if ways is None:
            return False
        for entry in ways:
            if entry is None:
                return False
        return True

    def pick_victim(
        self,
        address: int,
        victim_filter: Optional[Callable[[CacheLine], bool]] = None,
    ) -> Optional[CacheLine]:
        """Return the line that *would* be evicted to make room for
        ``address`` (without evicting it), or ``None`` if no eviction is
        needed."""
        if not self.needs_eviction(address):
            return None
        set_index = (address >> self._set_shift) & self._set_mask
        ways = self._sets[set_index]
        victim_way = self._victim_way(set_index, ways, victim_filter)
        return None if victim_way is None else ways[victim_way]

    def _victim_way(
        self,
        set_index: int,
        ways: List[Optional[CacheLine]],
        victim_filter: Optional[Callable[[CacheLine], bool]],
    ) -> Optional[int]:
        """Ask the replacement policy for a victim among the ways of a full
        set that pass ``victim_filter``; ``None`` if no way passes (the
        policy is then not asked)."""
        if victim_filter is None:
            candidates = list(range(self.assoc))
        else:
            candidates = [way for way, resident in enumerate(ways)
                          if victim_filter(resident)]  # type: ignore[arg-type]
            if not candidates:
                return None
        return self.replacement.victim(set_index, candidates)

    def allocate(self, address: int) -> CacheLine:
        """Convenience helper: create an empty line for ``address`` and
        insert it, raising if an eviction would be required.

        Protocol controllers that must handle victims should call
        :meth:`insert` directly.
        """
        line_addr = self.address_map.line_address(address)
        if self.needs_eviction(line_addr):
            raise RuntimeError(
                f"{self.name}: allocate({line_addr:#x}) would require eviction"
            )
        line = CacheLine(address=line_addr)
        self.insert(line)
        return line

    def remove(self, address: int) -> Optional[CacheLine]:
        """Remove and return the line containing ``address`` (or ``None``)."""
        line = self._lines.pop(address & self._line_mask, None)
        if line is None:
            return None
        set_index, way = self._locate(line)
        self._sets[set_index][way] = None
        self.replacement.invalidate(set_index, way)
        return line

    def clear(self) -> None:
        """Remove every resident line."""
        for line in self.lines():
            self.remove(line.address)
