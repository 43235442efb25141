"""Cache replacement policies.

The protocols in this repository are insensitive to the exact replacement
policy, but evictions *do* matter (an L2 eviction of a dirty Exclusive line
forces invalidations, and in TSO-CC evicted timestamps cause mandatory
self-invalidations on re-fetch), so the policies are implemented precisely
and are unit / property tested.

Every policy tracks usage per cache set and way.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import defaultdict
from typing import Dict, List, Optional


class ReplacementPolicy(ABC):
    """Abstract replacement policy interface.

    A policy is told about every access (:meth:`touch`), every fill
    (:meth:`fill`) and every invalidation (:meth:`invalidate`), and is asked
    to pick a :meth:`victim` way among candidate ways when a set is full.
    """

    @abstractmethod
    def touch(self, set_index: int, way: int) -> None:
        """Record a hit/use of ``way`` in ``set_index``."""

    @abstractmethod
    def fill(self, set_index: int, way: int) -> None:
        """Record that ``way`` in ``set_index`` was filled with a new line."""

    @abstractmethod
    def invalidate(self, set_index: int, way: int) -> None:
        """Record that ``way`` in ``set_index`` no longer holds a valid line."""

    @abstractmethod
    def victim(self, set_index: int, candidate_ways: List[int]) -> int:
        """Choose a victim way among ``candidate_ways`` in ``set_index``."""


class _StampReplacement(ReplacementPolicy):
    """Shared core of LRU and FIFO: evict the way with the oldest stamp.

    Every fill (and, for LRU, every touch) stamps its way with a rising
    clock.  Stamps live in one ``way -> stamp`` dict per set, so recording
    one builds no ``(set, way)`` key, and the victim is a builtin ``min``
    keyed on that dict.  A way without a stamp (never filled, or
    invalidated) counts as oldest; among several, the first candidate wins.
    """

    def __init__(self) -> None:
        self._clock = 0
        self._stamps: Dict[int, Dict[int, int]] = defaultdict(dict)

    def touch(self, set_index: int, way: int) -> None:
        return None

    def fill(self, set_index: int, way: int) -> None:
        self._clock += 1
        self._stamps[set_index][way] = self._clock

    def invalidate(self, set_index: int, way: int) -> None:
        self._stamps[set_index].pop(way, None)

    def victim(self, set_index: int, candidate_ways: List[int]) -> int:
        if not candidate_ways:
            raise ValueError("victim() called with no candidate ways")
        stamps = self._stamps[set_index]
        for way in candidate_ways:
            if way not in stamps:
                return way
        return min(candidate_ways, key=stamps.__getitem__)


class LRUReplacement(_StampReplacement):
    """Least-recently-used replacement (default for both L1 and L2)."""

    #: A use restamps the way exactly as a fill does.
    touch = _StampReplacement.fill


class FIFOReplacement(_StampReplacement):
    """First-in first-out replacement (fill order, ignores hits)."""


class RandomReplacement(ReplacementPolicy):
    """Random replacement driven by a seeded PRNG (deterministic per seed)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def touch(self, set_index: int, way: int) -> None:
        return None

    def fill(self, set_index: int, way: int) -> None:
        return None

    def invalidate(self, set_index: int, way: int) -> None:
        return None

    def victim(self, set_index: int, candidate_ways: List[int]) -> int:
        if not candidate_ways:
            raise ValueError("victim() called with no candidate ways")
        return self._rng.choice(candidate_ways)


_POLICY_FACTORIES = {
    "lru": LRUReplacement,
    "fifo": FIFOReplacement,
    "random": RandomReplacement,
}


def make_replacement_policy(name: str, seed: Optional[int] = None) -> ReplacementPolicy:
    """Create a replacement policy by name (``"lru"``, ``"fifo"``,
    ``"random"``).

    Args:
        name: policy name (case-insensitive).
        seed: PRNG seed, only used by the random policy.

    Raises:
        ValueError: for an unknown policy name.
    """
    key = name.lower()
    if key not in _POLICY_FACTORIES:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"expected one of {sorted(_POLICY_FACTORIES)}"
        )
    if key == "random":
        return RandomReplacement(seed=seed if seed is not None else 0)
    return _POLICY_FACTORIES[key]()
