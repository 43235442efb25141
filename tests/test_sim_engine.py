"""Tests for the discrete-event engine, system config and statistics."""

import gc
import sys

import pytest

from repro.sim.config import PAPER_SYSTEM, SystemConfig
from repro.sim.simulator import Simulator
from repro.sim.system import build_system
from repro.sim.stats import CoreStats, L1Stats, L2Stats, SystemStats


# ---------------------------------------------------------------------- simulator

def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(10, lambda: order.append("b"))
    sim.schedule(5, lambda: order.append("a"))
    sim.schedule(10, lambda: order.append("c"))  # same time: FIFO
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 10
    assert sim.events_executed == 3


def test_schedule_relative_and_absolute():
    # A delay counts from the time of the scheduling call: 4 cycles after
    # an event at cycle 3 is absolute cycle 7.
    sim = Simulator()
    seen = []
    sim.schedule(3, lambda: sim.schedule(4, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [7]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule(1 - sim.now, lambda: None)  # cycle 1 is in the past


def test_max_cycles_watchdog():
    sim = Simulator()

    def forever():
        sim.schedule(10, forever)

    sim.schedule(0, forever)
    with pytest.raises(RuntimeError):
        sim.run(max_cycles=1000)


def test_max_cycles_checked_before_running_offending_event():
    # The watchdog must trip on the *next* event's timestamp, before its
    # callback runs — an over-limit event must never execute.
    sim = Simulator()
    ran = []
    sim.schedule(5, lambda: ran.append("ok"))
    sim.schedule(2000, lambda: ran.append("past the limit"))
    with pytest.raises(RuntimeError) as exc:
        sim.run(max_cycles=1000)
    assert ran == ["ok"]
    assert "2000" in str(exc.value)  # reports the offending event's time
    assert sim.now == 5  # clock never advanced past the last legal event


def test_request_stop_halts_run_and_preserves_queue():
    sim = Simulator()
    ran = []

    def tick(n):
        ran.append(n)
        if n == 3:
            sim.request_stop()
        sim.schedule_call(1, tick, n + 1)

    sim.schedule_call(0, tick, 0)
    sim.run()
    assert ran == [0, 1, 2, 3]
    assert sim.stop_requested
    assert sim.pending_events == 1  # the already-scheduled tick(4) remains


def test_schedule_call_passes_args_without_closure():
    sim = Simulator()
    seen = []
    sim.schedule_call(2, seen.append, "x")
    sim.schedule_call(1, seen.append, "y")
    sim.run()
    assert seen == ["y", "x"]


# ---------------------------------------------------------------------- set-up

#: The platform the litmus runner builds (2 cores, 2 KB L1, 16 KB L2 tiles).
LITMUS_PLATFORM = SystemConfig().scaled(num_cores=2, l1_size_bytes=2048,
                                        l2_tile_size_bytes=16 * 1024, seed=1)


def objects_created_by_build(config, protocol):
    """GC-tracked objects one ``build_system`` call leaves alive, counted
    with the cyclic GC off (after one untimed build, so the per-class and
    per-geometry tables already exist)."""
    build_system(config, protocol)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        system = build_system(config, protocol)
        created = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert system.sim.pending_events == 0
    return created


@pytest.mark.parametrize("config, protocol, ceiling, ceiling_310", [
    # Measured 82 on 3.11/3.12 and 102 on 3.10 (before first-use buckets,
    # cache sets and per-class tables: 450 and 470).
    (LITMUS_PLATFORM, "MESI", 100, 125),
    # Measured 104 and 136 (before: 474 and 506).
    (LITMUS_PLATFORM, "TSO-CC-4-12-3", 125, 160),
    # Measured 256 and 324 (before: 1,396 and 1,464).
    (SystemConfig().scaled(num_cores=8, seed=1), "MESI", 300, 380),
])
def test_build_system_allocation_budget(config, protocol, ceiling, ceiling_310):
    """A System allocates nothing a short run may never touch: calendar
    buckets and cache sets come with their first use, dispatch tables are
    compiled per class and the topology is shared per geometry.  Every
    System is a reference cycle, so the cyclic GC traverses each object it
    allocates.  Python 3.10 also tracks every instance ``__dict__``."""
    limit = ceiling_310 if sys.version_info < (3, 11) else ceiling
    assert objects_created_by_build(config, protocol) <= limit


# ---------------------------------------------------------------------- config

def test_paper_system_matches_table2():
    assert PAPER_SYSTEM.num_cores == 32
    assert PAPER_SYSTEM.l1_size_bytes == 32 * 1024
    assert PAPER_SYSTEM.l2_tile_size_bytes == 1024 * 1024
    assert PAPER_SYSTEM.effective_l2_tiles == 32
    assert PAPER_SYSTEM.memory_latency_min == 120
    assert PAPER_SYSTEM.memory_latency_max == 230
    assert PAPER_SYSTEM.l1_lines == 512
    assert PAPER_SYSTEM.l2_tile_lines == 16384
    assert "2D Mesh" in PAPER_SYSTEM.describe()


def test_scaled_preserves_geometry_knobs():
    scaled = PAPER_SYSTEM.scaled(num_cores=4, l1_size_bytes=2048,
                                 l2_tile_size_bytes=16 * 1024)
    assert scaled.num_cores == 4
    assert scaled.effective_l2_tiles == 4
    assert scaled.l1_hit_latency == PAPER_SYSTEM.l1_hit_latency
    assert scaled.memory_latency_max == PAPER_SYSTEM.memory_latency_max


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(num_cores=0)
    with pytest.raises(ValueError):
        SystemConfig(write_buffer_entries=0)


# ---------------------------------------------------------------------- stats

def test_l1_stats_accumulation_and_rates():
    stats = L1Stats()
    stats.record_hit("read", "shared")
    stats.record_hit("read", "private")
    stats.record_hit("write", "private")
    stats.record_miss("read", "invalid")
    stats.record_miss("write", "shared")
    assert stats.total_reads == 3
    assert stats.total_writes == 2
    assert stats.total_misses == 2
    assert stats.miss_rate == pytest.approx(2 / 5)


def test_l1_stats_self_invalidation_fractions():
    stats = L1Stats()
    stats.data_responses = 10
    stats.record_self_invalidation("acquire", lines=3, from_response=True)
    stats.record_self_invalidation("invalid_ts", lines=1, from_response=True)
    stats.record_self_invalidation("fence", lines=2, from_response=False)
    frac = stats.self_inval_response_fraction()
    assert frac["acquire"] == pytest.approx(0.1)
    assert frac["invalid_ts"] == pytest.approx(0.1)
    causes = stats.self_inval_cause_fraction()
    assert causes["fence"] == pytest.approx(1 / 3)
    assert stats.lines_self_invalidated == 6


def test_l1_stats_merge():
    a, b = L1Stats(), L1Stats()
    a.record_hit("read", "shared")
    b.record_hit("read", "shared")
    b.record_miss("write", "invalid")
    b.rmws, b.rmw_latency_total = 2, 100
    a.merge(b)
    assert a.read_hits["shared"] == 2
    assert a.write_misses["invalid"] == 1
    assert a.avg_rmw_latency == 50


def test_system_stats_breakdowns_sum_to_one():
    stats = SystemStats(cycles=100)
    l1 = L1Stats()
    l1.record_hit("read", "shared")
    l1.record_hit("read", "shared_ro")
    l1.record_hit("write", "private")
    l1.record_miss("read", "invalid")
    stats.l1 = [l1]
    stats.cores = [CoreStats(finish_time=100)]
    stats.l2 = [L2Stats()]
    hits = stats.hit_breakdown()
    assert sum(hits.values()) == pytest.approx(1.0)
    summary = stats.summary()
    assert summary["l1_accesses"] == 4
    assert summary["l1_misses"] == 1


def test_core_stats_merge_takes_max_finish_time():
    a = CoreStats(finish_time=50, loads=1)
    b = CoreStats(finish_time=80, loads=2)
    a.merge(b)
    assert a.finish_time == 80
    assert a.loads == 3
