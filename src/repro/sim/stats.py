"""Statistics collected during simulation.

Every protocol controller and core model records into these containers; the
benchmark harness then turns them into the quantities the paper plots:

* Figure 3 — execution time (``SystemStats.cycles``) normalized to MESI,
* Figure 4 — network traffic in flits (``SystemStats.network.flits``),
* Figure 5 — L1 miss breakdown by the state the miss occurred in,
* Figure 6 — L1 hit/miss breakdown with hits split by Shared / SharedRO /
  private state,
* Figure 7 — percentage of data responses that triggered a self-invalidation,
  split by trigger,
* Figure 8 — RMW latency,
* Figure 9 — breakdown of self-invalidation causes (including fences).

State *categories* used throughout are protocol-agnostic strings:
``"invalid"``, ``"shared"``, ``"shared_ro"``, ``"private"``.
Self-invalidation *causes* are ``"invalid_ts"``, ``"acquire"``
(potential acquire, non-SharedRO), ``"acquire_sro"`` and ``"fence"``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

from repro.interconnect.network import NetworkStats

#: Miss/hit state categories used across protocols.
STATE_CATEGORIES = ("invalid", "shared", "shared_ro", "private")

#: Self-invalidation causes (Figure 7 / Figure 9 legend).
SELF_INVAL_CAUSES = ("invalid_ts", "acquire", "acquire_sro", "fence")

#: Version of the serialized-statistics schema produced by
#: :meth:`SystemStats.to_dict`.  Bump whenever a counter is added, removed or
#: its meaning changes — the on-disk result cache keys on it, so a bump
#: invalidates every cached simulation result.
STATS_SCHEMA_VERSION = 1


def _counter() -> Dict[str, int]:
    return defaultdict(int)


def _counter_from(data: Dict[str, int]) -> Dict[str, int]:
    counter = _counter()
    for key, value in data.items():
        counter[key] = int(value)
    return counter


def _scalar_dict(obj, fields) -> Dict[str, int]:
    return {name: getattr(obj, name) for name in fields}


@dataclass
class L1Stats:
    """Per-L1 cache controller statistics."""

    read_hits: Dict[str, int] = field(default_factory=_counter)
    write_hits: Dict[str, int] = field(default_factory=_counter)
    read_misses: Dict[str, int] = field(default_factory=_counter)
    write_misses: Dict[str, int] = field(default_factory=_counter)
    evictions: Dict[str, int] = field(default_factory=_counter)

    data_responses: int = 0
    self_inval_events: Dict[str, int] = field(default_factory=_counter)
    self_inval_triggering_responses: Dict[str, int] = field(default_factory=_counter)
    lines_self_invalidated: int = 0

    loads: int = 0
    load_latency_total: int = 0
    stores: int = 0
    store_latency_total: int = 0
    rmws: int = 0
    rmw_latency_total: int = 0
    fences: int = 0

    invalidations_received: int = 0
    ts_resets: int = 0

    # -- recording helpers --------------------------------------------------

    def record_hit(self, kind: str, category: str) -> None:
        """Record a hit; ``kind`` is ``"read"`` or ``"write"``."""
        target = self.read_hits if kind == "read" else self.write_hits
        target[category] += 1

    def record_miss(self, kind: str, category: str) -> None:
        """Record a miss; ``category`` is the state the line was found in."""
        target = self.read_misses if kind == "read" else self.write_misses
        target[category] += 1

    def record_self_invalidation(self, cause: str, lines: int, from_response: bool) -> None:
        """Record one self-invalidation event.

        Args:
            cause: one of :data:`SELF_INVAL_CAUSES`.
            lines: number of Shared lines invalidated by the event.
            from_response: whether the event was triggered by a data
                response (as opposed to a fence).
        """
        self.self_inval_events[cause] += 1
        self.lines_self_invalidated += lines
        if from_response:
            self.self_inval_triggering_responses[cause] += 1

    # -- derived quantities ---------------------------------------------------

    @property
    def total_reads(self) -> int:
        """Total read accesses (hits + misses)."""
        return sum(self.read_hits.values()) + sum(self.read_misses.values())

    @property
    def total_writes(self) -> int:
        """Total write accesses (hits + misses)."""
        return sum(self.write_hits.values()) + sum(self.write_misses.values())

    @property
    def total_accesses(self) -> int:
        """Total L1 accesses."""
        return self.total_reads + self.total_writes

    @property
    def total_misses(self) -> int:
        """Total L1 misses."""
        return sum(self.read_misses.values()) + sum(self.write_misses.values())

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0 when there were no accesses)."""
        total = self.total_accesses
        return self.total_misses / total if total else 0.0

    @property
    def avg_rmw_latency(self) -> float:
        """Average RMW latency in cycles (0 when no RMWs executed)."""
        return self.rmw_latency_total / self.rmws if self.rmws else 0.0

    @property
    def avg_load_latency(self) -> float:
        """Average load latency in cycles."""
        return self.load_latency_total / self.loads if self.loads else 0.0

    def self_inval_response_fraction(self) -> Dict[str, float]:
        """Fraction of data responses that triggered self-invalidation,
        split by cause (the Figure 7 quantity)."""
        if not self.data_responses:
            return {cause: 0.0 for cause in SELF_INVAL_CAUSES if cause != "fence"}
        return {
            cause: self.self_inval_triggering_responses.get(cause, 0) / self.data_responses
            for cause in SELF_INVAL_CAUSES
            if cause != "fence"
        }

    def self_inval_cause_fraction(self) -> Dict[str, float]:
        """Breakdown of self-invalidation events by cause (Figure 9)."""
        total = sum(self.self_inval_events.values())
        if not total:
            return {cause: 0.0 for cause in SELF_INVAL_CAUSES}
        return {
            cause: self.self_inval_events.get(cause, 0) / total
            for cause in SELF_INVAL_CAUSES
        }

    #: Counter-valued fields (serialized as plain dicts).
    COUNTER_FIELDS = ("read_hits", "write_hits", "read_misses", "write_misses",
                      "evictions", "self_inval_events",
                      "self_inval_triggering_responses")

    #: Scalar integer fields.
    SCALAR_FIELDS = ("data_responses", "lines_self_invalidated", "loads",
                     "load_latency_total", "stores", "store_latency_total",
                     "rmws", "rmw_latency_total", "fences",
                     "invalidations_received", "ts_resets")

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serializable representation (see :meth:`from_dict`)."""
        payload: Dict[str, object] = {name: dict(getattr(self, name))
                                      for name in self.COUNTER_FIELDS}
        payload.update(_scalar_dict(self, self.SCALAR_FIELDS))
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "L1Stats":
        """Rebuild an :class:`L1Stats` from :meth:`to_dict` output."""
        kwargs = {name: _counter_from(data.get(name, {}))
                  for name in cls.COUNTER_FIELDS}
        kwargs.update({name: int(data.get(name, 0)) for name in cls.SCALAR_FIELDS})
        return cls(**kwargs)

    def merge(self, other: "L1Stats") -> None:
        """Accumulate ``other`` into this object (used for aggregation)."""
        for attr in ("read_hits", "write_hits", "read_misses", "write_misses",
                     "evictions", "self_inval_events",
                     "self_inval_triggering_responses"):
            mine = getattr(self, attr)
            for key, value in getattr(other, attr).items():
                mine[key] += value
        self.data_responses += other.data_responses
        self.lines_self_invalidated += other.lines_self_invalidated
        self.loads += other.loads
        self.load_latency_total += other.load_latency_total
        self.stores += other.stores
        self.store_latency_total += other.store_latency_total
        self.rmws += other.rmws
        self.rmw_latency_total += other.rmw_latency_total
        self.fences += other.fences
        self.invalidations_received += other.invalidations_received
        self.ts_resets += other.ts_resets


@dataclass
class L2Stats:
    """Per-L2-tile statistics."""

    requests: Dict[str, int] = field(default_factory=_counter)
    memory_reads: int = 0
    memory_writes: int = 0
    evictions: Dict[str, int] = field(default_factory=_counter)
    sro_transitions: int = 0
    shared_decays: int = 0
    sro_invalidation_broadcasts: int = 0
    recalls: int = 0
    ts_resets: int = 0
    forwarded_requests: int = 0

    COUNTER_FIELDS = ("requests", "evictions")
    SCALAR_FIELDS = ("memory_reads", "memory_writes", "sro_transitions",
                     "shared_decays", "sro_invalidation_broadcasts", "recalls",
                     "ts_resets", "forwarded_requests")

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serializable representation (see :meth:`from_dict`)."""
        payload: Dict[str, object] = {name: dict(getattr(self, name))
                                      for name in self.COUNTER_FIELDS}
        payload.update(_scalar_dict(self, self.SCALAR_FIELDS))
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "L2Stats":
        """Rebuild an :class:`L2Stats` from :meth:`to_dict` output."""
        kwargs = {name: _counter_from(data.get(name, {}))
                  for name in cls.COUNTER_FIELDS}
        kwargs.update({name: int(data.get(name, 0)) for name in cls.SCALAR_FIELDS})
        return cls(**kwargs)

    def merge(self, other: "L2Stats") -> None:
        """Accumulate ``other`` into this object."""
        for key, value in other.requests.items():
            self.requests[key] += value
        for key, value in other.evictions.items():
            self.evictions[key] += value
        self.memory_reads += other.memory_reads
        self.memory_writes += other.memory_writes
        self.sro_transitions += other.sro_transitions
        self.shared_decays += other.shared_decays
        self.sro_invalidation_broadcasts += other.sro_invalidation_broadcasts
        self.recalls += other.recalls
        self.ts_resets += other.ts_resets
        self.forwarded_requests += other.forwarded_requests


@dataclass
class CoreStats:
    """Per-core statistics from the core model."""

    memory_ops: int = 0
    loads: int = 0
    stores: int = 0
    rmws: int = 0
    fences: int = 0
    work_cycles: int = 0
    wb_full_stalls: int = 0
    finish_time: int = 0
    ts_resets: int = 0

    SCALAR_FIELDS = ("memory_ops", "loads", "stores", "rmws", "fences",
                     "work_cycles", "wb_full_stalls", "finish_time", "ts_resets")

    def to_dict(self) -> Dict[str, int]:
        """Return a JSON-serializable representation (see :meth:`from_dict`)."""
        return _scalar_dict(self, self.SCALAR_FIELDS)

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "CoreStats":
        """Rebuild a :class:`CoreStats` from :meth:`to_dict` output."""
        return cls(**{name: int(data.get(name, 0)) for name in cls.SCALAR_FIELDS})

    def merge(self, other: "CoreStats") -> None:
        """Accumulate ``other`` into this object (finish_time takes the max)."""
        self.memory_ops += other.memory_ops
        self.loads += other.loads
        self.stores += other.stores
        self.rmws += other.rmws
        self.fences += other.fences
        self.work_cycles += other.work_cycles
        self.wb_full_stalls += other.wb_full_stalls
        self.ts_resets += other.ts_resets
        self.finish_time = max(self.finish_time, other.finish_time)


@dataclass
class SystemStats:
    """Whole-system statistics for one simulation run."""

    protocol: str = ""
    workload: str = ""
    cycles: int = 0
    events: int = 0
    l1: List[L1Stats] = field(default_factory=list)
    l2: List[L2Stats] = field(default_factory=list)
    cores: List[CoreStats] = field(default_factory=list)
    network: NetworkStats = field(default_factory=NetworkStats)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serializable representation of the full statistics.

        This is the worker-boundary contract of the parallel experiment
        runner: every counter survives a ``to_dict``/``from_dict`` round trip
        exactly (``from_dict(s.to_dict()) == s``), and the payload is plain
        JSON so it can be persisted in the on-disk result cache.
        """
        return {
            "schema": STATS_SCHEMA_VERSION,
            "protocol": self.protocol,
            "workload": self.workload,
            "cycles": self.cycles,
            "events": self.events,
            "l1": [stats.to_dict() for stats in self.l1],
            "l2": [stats.to_dict() for stats in self.l2],
            "cores": [stats.to_dict() for stats in self.cores],
            "network": self.network.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SystemStats":
        """Rebuild a :class:`SystemStats` from :meth:`to_dict` output.

        Raises:
            ValueError: if the payload was produced by a different
                :data:`STATS_SCHEMA_VERSION` (stale cache entry).
        """
        schema = data.get("schema")
        if schema != STATS_SCHEMA_VERSION:
            raise ValueError(
                f"stats payload has schema {schema!r}, expected "
                f"{STATS_SCHEMA_VERSION!r}"
            )
        return cls(
            protocol=str(data.get("protocol", "")),
            workload=str(data.get("workload", "")),
            cycles=int(data.get("cycles", 0)),
            events=int(data.get("events", 0)),
            l1=[L1Stats.from_dict(item) for item in data.get("l1", [])],
            l2=[L2Stats.from_dict(item) for item in data.get("l2", [])],
            cores=[CoreStats.from_dict(item) for item in data.get("cores", [])],
            network=NetworkStats.from_dict(data["network"]) if "network" in data
            else NetworkStats(),
        )

    # -- aggregation -------------------------------------------------------

    def aggregate_l1(self) -> L1Stats:
        """Return the sum of all per-core L1 statistics."""
        total = L1Stats()
        for stats in self.l1:
            total.merge(stats)
        return total

    def aggregate_l2(self) -> L2Stats:
        """Return the sum of all per-tile L2 statistics."""
        total = L2Stats()
        for stats in self.l2:
            total.merge(stats)
        return total

    # -- figure-level quantities --------------------------------------------

    @property
    def total_flits(self) -> int:
        """Total network traffic in flits (Figure 4 metric)."""
        return self.network.flits

    def miss_breakdown(self) -> Dict[str, float]:
        """L1 misses per access, keyed like Figure 5
        (``read_miss_invalid``, ``write_miss_shared`` ...)."""
        agg = self.aggregate_l1()
        total = agg.total_accesses
        result: Dict[str, float] = {}
        for category in STATE_CATEGORIES:
            result[f"read_miss_{category}"] = (
                agg.read_misses.get(category, 0) / total if total else 0.0
            )
            result[f"write_miss_{category}"] = (
                agg.write_misses.get(category, 0) / total if total else 0.0
            )
        return result

    def hit_breakdown(self) -> Dict[str, float]:
        """L1 hits and misses as fractions of all accesses (Figure 6)."""
        agg = self.aggregate_l1()
        total = agg.total_accesses
        if not total:
            return {}
        return {
            "read_miss": sum(agg.read_misses.values()) / total,
            "write_miss": sum(agg.write_misses.values()) / total,
            "read_hit_shared": agg.read_hits.get("shared", 0) / total,
            "read_hit_shared_ro": agg.read_hits.get("shared_ro", 0) / total,
            "read_hit_private": agg.read_hits.get("private", 0) / total,
            "write_hit_private": agg.write_hits.get("private", 0) / total,
        }

    def self_invalidation_trigger_fraction(self) -> Dict[str, float]:
        """Fraction of L1 data responses triggering self-invalidation
        (Figure 7)."""
        return self.aggregate_l1().self_inval_response_fraction()

    def self_invalidation_cause_breakdown(self) -> Dict[str, float]:
        """Self-invalidation cause breakdown including fences (Figure 9)."""
        return self.aggregate_l1().self_inval_cause_fraction()

    def avg_rmw_latency(self) -> float:
        """Average RMW latency across all cores (Figure 8 metric)."""
        agg = self.aggregate_l1()
        return agg.avg_rmw_latency

    def summary(self) -> Dict[str, float]:
        """Flat summary used by the experiment harness and tests."""
        agg = self.aggregate_l1()
        return {
            "cycles": self.cycles,
            "flits": self.total_flits,
            "messages": self.network.messages,
            "l1_accesses": agg.total_accesses,
            "l1_misses": agg.total_misses,
            "l1_miss_rate": agg.miss_rate,
            "self_invalidations": sum(agg.self_inval_events.values()),
            "lines_self_invalidated": agg.lines_self_invalidated,
            "avg_rmw_latency": agg.avg_rmw_latency,
            "avg_load_latency": agg.avg_load_latency,
        }
