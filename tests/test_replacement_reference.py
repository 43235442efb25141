"""Reference test for the cache victim path.

LRU and FIFO keep their stamps in one dict per set, and ``CacheArray``
keeps a single line index (finding a line's way by scanning its set) and
takes set indices from a precomputed mask.  This module keeps the earlier
tuple-keyed policies and the earlier ``CacheArray`` victim selection as
references, drives both with random fill/touch/invalidate/victim
sequences, and requires identical victims: directly on the policies, and
through the L2 allocation sequence (``needs_eviction``, ``pick_victim``,
``insert``, with a busy-line filter).  Random replacement draws from its
seeded RNG on every ``victim()`` call, so identical draws under the same
seed prove the cache asks for the same victims, in the same order, among
the same candidates.
"""

from typing import Dict, List, Optional

from hypothesis import given, settings, strategies as st

from repro.memsys.address import AddressMap
from repro.memsys.cache import CacheArray
from repro.memsys.cacheline import CacheLine
from repro.memsys.replacement import (FIFOReplacement, LRUReplacement,
                                      RandomReplacement, ReplacementPolicy)


class ReferenceLRU(ReplacementPolicy):
    """The earlier LRU policy, keyed by ``(set_index, way)``."""

    def __init__(self) -> None:
        self._clock = 0
        self._last_use: Dict[tuple, int] = {}

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def touch(self, set_index: int, way: int) -> None:
        self._last_use[(set_index, way)] = self._tick()

    def fill(self, set_index: int, way: int) -> None:
        self._last_use[(set_index, way)] = self._tick()

    def invalidate(self, set_index: int, way: int) -> None:
        self._last_use.pop((set_index, way), None)

    def victim(self, set_index: int, candidate_ways: List[int]) -> int:
        return min(candidate_ways,
                   key=lambda way: self._last_use.get((set_index, way), -1))


class ReferenceFIFO(ReplacementPolicy):
    """The earlier FIFO policy, keyed by ``(set_index, way)``."""

    def __init__(self) -> None:
        self._clock = 0
        self._fill_time: Dict[tuple, int] = {}

    def touch(self, set_index: int, way: int) -> None:
        return None

    def fill(self, set_index: int, way: int) -> None:
        self._clock += 1
        self._fill_time[(set_index, way)] = self._clock

    def invalidate(self, set_index: int, way: int) -> None:
        self._fill_time.pop((set_index, way), None)

    def victim(self, set_index: int, candidate_ways: List[int]) -> int:
        return min(candidate_ways,
                   key=lambda way: self._fill_time.get((set_index, way), -1))


class ReferenceCache:
    """The earlier ``CacheArray`` victim path: a tuple index and
    ``AddressMap.set_index`` per access, the candidate list built from
    ``range(assoc)``."""

    def __init__(self, size_bytes: int, assoc: int, address_map: AddressMap,
                 replacement: ReplacementPolicy) -> None:
        self.assoc = assoc
        self.num_sets = size_bytes // (assoc * address_map.line_size)
        self.address_map = address_map
        self.replacement = replacement
        self._sets: List[List[Optional[CacheLine]]] = [
            [None] * assoc for _ in range(self.num_sets)]
        self._index: Dict[int, tuple] = {}

    def touch(self, address: int) -> None:
        loc = self._index.get(self.address_map.line_address(address))
        if loc is not None:
            self.replacement.touch(*loc)

    def needs_eviction(self, address: int) -> bool:
        line_addr = self.address_map.line_address(address)
        if line_addr in self._index:
            return False
        set_index = self.address_map.set_index(line_addr, self.num_sets)
        return all(entry is not None for entry in self._sets[set_index])

    def _candidates(self, ways, victim_filter) -> List[int]:
        return [way for way in range(self.assoc) if victim_filter(ways[way])]

    def pick_victim(self, address: int, victim_filter) -> Optional[CacheLine]:
        if not self.needs_eviction(address):
            return None
        set_index = self.address_map.set_index(address, self.num_sets)
        ways = self._sets[set_index]
        candidates = self._candidates(ways, victim_filter)
        if not candidates:
            return None
        return ways[self.replacement.victim(set_index, candidates)]

    def insert(self, line: CacheLine, victim_filter) -> Optional[CacheLine]:
        line_addr = line.address
        existing = self._index.get(line_addr)
        if existing is not None:
            set_index, way = existing
            self._sets[set_index][way] = line
            self.replacement.touch(set_index, way)
            return None
        set_index = self.address_map.set_index(line_addr, self.num_sets)
        ways = self._sets[set_index]
        for way, resident in enumerate(ways):
            if resident is None:
                ways[way] = line
                self._index[line_addr] = (set_index, way)
                self.replacement.fill(set_index, way)
                return None
        candidates = self._candidates(ways, victim_filter)
        assert candidates
        victim_way = self.replacement.victim(set_index, candidates)
        victim = ways[victim_way]
        del self._index[victim.address]
        self.replacement.invalidate(set_index, victim_way)
        ways[victim_way] = line
        self._index[line_addr] = (set_index, victim_way)
        self.replacement.fill(set_index, victim_way)
        return victim

    def remove(self, address: int) -> None:
        loc = self._index.pop(self.address_map.line_address(address), None)
        if loc is not None:
            set_index, way = loc
            self._sets[set_index][way] = None
            self.replacement.invalidate(set_index, way)


POLICIES = {
    "lru": (ReferenceLRU, LRUReplacement),
    "fifo": (ReferenceFIFO, FIFOReplacement),
}

policy_ops = st.lists(st.tuples(
    st.sampled_from(["fill", "touch", "invalidate", "victim"]),
    st.integers(min_value=0, max_value=3),          # set index
    st.integers(min_value=0, max_value=3),          # way
    st.sets(st.integers(min_value=0, max_value=3), min_size=1),
), max_size=80)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(POLICIES)), ops=policy_ops)
def test_policy_victims_match_reference(name, ops):
    reference_cls, policy_cls = POLICIES[name]
    reference, policy = reference_cls(), policy_cls()
    for op, set_index, way, candidates in ops:
        if op == "victim":
            ways = sorted(candidates)
            assert policy.victim(set_index, ways) == reference.victim(set_index, ways)
        else:
            getattr(policy, op)(set_index, way)
            getattr(reference, op)(set_index, way)


LINE = 64
cache_ops = st.lists(st.tuples(
    st.sampled_from(["allocate", "allocate", "touch", "remove"]),
    st.integers(min_value=0, max_value=31),         # line number
    st.integers(min_value=0, max_value=255),        # busy mask over residents
), max_size=120)


def _allocate(cache, line_addr: int, busy: set):
    """The L2 allocation sequence of ``BaseL2Controller.allocate_line``:
    ``"busy"`` when every candidate way is filtered out, else the victim's
    address (or ``None`` when no eviction was needed)."""
    can_evict = lambda cand: cand.address not in busy  # noqa: E731
    if cache.needs_eviction(line_addr) and cache.pick_victim(
            line_addr, victim_filter=can_evict) is None:
        return "busy"
    victim = cache.insert(CacheLine(address=line_addr), victim_filter=can_evict)
    return None if victim is None else victim.address


def _drive(cache, ops, residents) -> list:
    trace = []
    for op, number, mask in ops:
        address = number * LINE
        if op == "allocate":
            resident = sorted(residents(cache))
            busy = {addr for bit, addr in enumerate(resident) if mask >> bit & 1}
            trace.append(_allocate(cache, address, busy))
        elif op == "touch":
            if isinstance(cache, CacheArray):
                cache.lookup(address)
            else:
                cache.touch(address)
        else:
            cache.remove(address)
        trace.append(sorted(residents(cache)))
    return trace


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["lru", "fifo", "random"]),
       seed=st.integers(min_value=0, max_value=2**16), ops=cache_ops)
def test_l2_allocation_victims_match_reference(name, seed, ops):
    address_map = AddressMap(line_size=LINE)
    if name == "random":
        reference_policy = RandomReplacement(seed=seed)
        policy = RandomReplacement(seed=seed)
    else:
        reference_cls, policy_cls = POLICIES[name]
        reference_policy, policy = reference_cls(), policy_cls()
    # 4 sets x 2 ways: 32 line numbers keep every set contended.
    reference = ReferenceCache(512, 2, address_map, reference_policy)
    cache = CacheArray(512, 2, address_map, replacement=policy)
    expected = _drive(reference, ops, lambda c: c._index.keys())
    actual = _drive(cache, ops, lambda c: (line.address for line in c.lines()))
    assert actual == expected
    if name == "random":
        # Same number of draws: the two RNGs are still in step.
        assert policy._rng.random() == reference_policy._rng.random()
