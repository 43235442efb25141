"""Unit and property tests for the set-associative cache array."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memsys.address import AddressMap
from repro.memsys.cache import CacheArray
from repro.memsys.cacheline import CacheLine


def make_cache(size=1024, assoc=2, line=64):
    return CacheArray(size_bytes=size, assoc=assoc,
                      address_map=AddressMap(line_size=line), name="test")


def test_geometry():
    cache = make_cache(size=1024, assoc=2, line=64)
    assert cache.num_sets == 8
    assert len(cache) == 0


def test_geometry_validation():
    with pytest.raises(ValueError):
        make_cache(size=1000, assoc=2)
    with pytest.raises(ValueError):
        CacheArray(size_bytes=0, assoc=1, address_map=AddressMap())


def test_insert_lookup_remove():
    cache = make_cache()
    line = CacheLine(address=0x1000, state="S")
    assert cache.insert(line) is None
    assert 0x1000 in cache
    assert 0x1010 in cache  # same line
    hit = cache.lookup(0x1008)
    assert hit.hit and hit.line is line
    removed = cache.remove(0x1000)
    assert removed is line
    assert 0x1000 not in cache
    assert cache.remove(0x1000) is None


def test_insert_same_address_replaces_in_place():
    cache = make_cache()
    first = CacheLine(address=0x2000, state="A")
    second = CacheLine(address=0x2000, state="B")
    cache.insert(first)
    victim = cache.insert(second)
    assert victim is None
    assert cache.get_line(0x2000) is second
    assert len(cache) == 1


def test_eviction_lru_order():
    cache = make_cache(size=256, assoc=2, line=64)  # 2 sets, 2 ways
    # Three lines mapping to the same set (stride = num_sets * line = 128).
    a, b, c = 0x0, 0x100, 0x200
    cache.insert(CacheLine(address=a))
    cache.insert(CacheLine(address=b))
    cache.lookup(a)  # touch a so b becomes LRU
    victim = cache.insert(CacheLine(address=c))
    assert victim is not None and victim.address == b
    assert a in cache and c in cache and b not in cache


def test_victim_filter_respected():
    cache = make_cache(size=256, assoc=2, line=64)
    a, b, c = 0x0, 0x100, 0x200
    cache.insert(CacheLine(address=a))
    cache.insert(CacheLine(address=b))
    victim = cache.insert(CacheLine(address=c),
                          victim_filter=lambda line: line.address != a)
    assert victim.address == b


def test_victim_filter_exhausted_raises():
    cache = make_cache(size=256, assoc=2, line=64)
    cache.insert(CacheLine(address=0x0))
    cache.insert(CacheLine(address=0x100))
    with pytest.raises(RuntimeError):
        cache.insert(CacheLine(address=0x200), victim_filter=lambda line: False)


def test_unaligned_insert_rejected():
    cache = make_cache()
    with pytest.raises(ValueError):
        cache.insert(CacheLine(address=0x1004))


def test_needs_eviction_and_pick_victim():
    cache = make_cache(size=256, assoc=2, line=64)
    assert not cache.needs_eviction(0x0)
    cache.insert(CacheLine(address=0x0))
    cache.insert(CacheLine(address=0x100))
    # Set 1 was never filled: it counts as empty.
    assert not cache.needs_eviction(0x40)
    assert cache.pick_victim(0x40) is None
    assert cache.set_occupancy(0x40) == 0
    assert cache.needs_eviction(0x200)
    assert not cache.needs_eviction(0x100)  # already resident
    victim = cache.pick_victim(0x200)
    assert victim is not None and victim.address in (0x0, 0x100)
    # pick_victim must not actually evict.
    assert len(cache) == 2


def test_allocate_raises_when_full():
    cache = make_cache(size=256, assoc=2, line=64)
    cache.allocate(0x0)
    cache.allocate(0x100)
    with pytest.raises(RuntimeError):
        cache.allocate(0x200)


def test_clear():
    cache = make_cache()
    for i in range(4):
        cache.insert(CacheLine(address=i * 64))
    cache.clear()
    assert len(cache) == 0


@settings(max_examples=60, deadline=None)
@given(addresses=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=120))
def test_capacity_and_residency_invariants(addresses):
    """After arbitrary insertions: capacity is never exceeded, every resident
    line is findable at its own address, and set occupancy never exceeds the
    associativity."""
    cache = make_cache(size=512, assoc=2, line=64)  # 8 lines capacity
    inserted = set()
    for index in addresses:
        address = index * 64
        cache.insert(CacheLine(address=address))
        inserted.add(address)
        assert len(cache) <= 8
    for line in cache.lines():
        assert line.address in inserted
        assert cache.get_line(line.address) is line
        assert cache.set_occupancy(line.address) <= cache.assoc
