"""Ordering contract of the calendar-queue scheduler.

The engine promises: events run in time order, and events for the *same*
cycle run in the order they were scheduled (FIFO) — regardless of which
scheduling entry point was used (``schedule`` / ``schedule_call``), of how
many times the bucket ring has wrapped, and of
whether an event took the spill-heap detour before migrating into its
bucket.  Golden stats pin ``events_executed``, so these tests also pin that
every scheduling call is exactly one executed event.
"""

import pytest

from repro.sim.simulator import Simulator, suggest_ring_size


# ------------------------------------------------------------- same-cycle FIFO

def test_same_cycle_fifo_across_entry_points():
    """schedule / schedule_call interleaved at one cycle run strictly in
    scheduling order."""
    sim = Simulator()
    order = []
    sim.schedule(7, lambda: order.append("a"))
    sim.schedule_call(7, order.append, "b")
    sim.schedule(7, lambda: order.append("c"))
    sim.schedule_call(7, order.append, "d")
    sim.schedule(7, lambda: order.append("e"))
    sim.run()
    assert order == ["a", "b", "c", "d", "e"]
    assert sim.events_executed == 5


def test_same_cycle_events_scheduled_mid_bucket_run_after_tail():
    """A delay-0 event scheduled from inside a bucket runs this cycle, after
    the events that were already queued for it."""
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0, lambda: order.append("appended"))

    sim.schedule(4, first)
    sim.schedule(4, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "appended"]
    assert sim.now == 4
    assert sim.events_executed == 3


# ---------------------------------------------------------------- wraparound

def test_fifo_survives_many_ring_wraparounds():
    """A chain stepping 3 cycles at a time through a ring of 8 wraps the
    ring dozens of times; time order and per-cycle FIFO must be unaffected."""
    sim = Simulator(ring_size=8)
    seen = []

    def tick():
        seen.append(sim.now)
        if sim.now < 120:
            sim.schedule(3, tick)

    sim.schedule(0, tick)
    sim.run()
    assert seen == list(range(0, 121, 3))


def test_wrapped_bucket_does_not_collide_with_future_cycle():
    """Cycle t and cycle t + ring_size share a bucket slot; an event for the
    later cycle scheduled while the earlier one is pending must not run
    early."""
    sim = Simulator(ring_size=8)
    order = []
    sim.schedule(2, lambda: order.append(("near", sim.now)))
    # Reachable only once 'near' has run and now has advanced: schedule the
    # far event from inside the near one (delay 8 == ring_size spills).
    sim.schedule(2, lambda: sim.schedule(7, lambda: order.append(("far", sim.now))))
    sim.run()
    assert order == [("near", 2), ("far", 9)]


# ---------------------------------------------------------------- spill heap

def test_spill_heap_handoff_preserves_time_order():
    """Delays >= ring_size spill to the heap; they still run in global time
    order interleaved with ring events."""
    sim = Simulator(ring_size=8)
    order = []
    sim.schedule(20, lambda: order.append(20))   # spill
    sim.schedule(3, lambda: order.append(3))     # ring
    sim.schedule(100, lambda: order.append(100))  # spill, beyond one horizon
    sim.schedule(5, lambda: order.append(5))     # ring
    sim.run()
    assert order == [3, 5, 20, 100]
    assert sim.now == 100


def test_spilled_event_runs_before_ring_event_for_same_cycle():
    """An event that spilled (scheduled early, far ahead) runs before a ring
    event scheduled later for the same cycle: migration happens before the
    cycle comes within ring reach, so FIFO order holds across the boundary."""
    sim = Simulator(ring_size=8)
    order = []
    sim.schedule(20, lambda: order.append("spilled-first"))  # at t=0: spill
    # At t=15, cycle 20 is within the ring: this lands in the bucket that
    # the spilled event must already occupy.
    sim.schedule(15, lambda: sim.schedule(5, lambda: order.append("ring-second")))
    sim.run()
    assert order == ["spilled-first", "ring-second"]


def test_spill_only_queue_advances_time_directly():
    """With an empty ring, the next event time comes from the heap — the
    scan must not walk cycle-by-cycle to a far-future spill event."""
    sim = Simulator(ring_size=8)
    seen = []
    sim.schedule(1_000_000, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1_000_000]
    assert sim.pending_events == 0


# ------------------------------------------------------------------- stopping

def test_request_stop_mid_bucket_preserves_unexecuted_tail():
    """request_stop from inside a bucket stops before the next event in that
    same bucket; the tail stays queued."""
    sim = Simulator()
    order = []
    sim.schedule(2, lambda: order.append("ran"))
    sim.schedule(2, sim.request_stop)
    sim.schedule(2, lambda: order.append("not-run"))
    sim.schedule(9, lambda: order.append("later"))
    sim.run()
    assert order == ["ran"]
    assert sim.stop_requested
    assert sim.now == 2
    assert sim.events_executed == 2  # "ran" + the stop callback itself
    assert sim.pending_events == 2   # the same-cycle tail + the later event
    # Clearing the flag resumes exactly where the run left off.
    sim.stop_requested = False
    sim.run()
    assert order == ["ran", "not-run", "later"]


# ------------------------------------------------------------------ watchdogs

def test_max_cycles_applies_to_spilled_events():
    """The max_cycles bound is checked on the next event's own timestamp
    even when that event lives in the spill heap."""
    sim = Simulator(ring_size=8)
    sim.schedule(500, lambda: None)
    with pytest.raises(RuntimeError, match="max_cycles"):
        sim.run(max_cycles=100)
    assert sim.events_executed == 0


def test_until_predicate_with_small_ring():
    """An early stop while the only pending event sits in the spill heap
    leaves it queued, and a resumed run picks it up."""
    sim = Simulator(ring_size=8)
    counter = {"n": 0}

    def tick():
        counter["n"] += 1
        if counter["n"] == 4:
            sim.request_stop()
        if counter["n"] < 5:
            sim.schedule(13, tick)  # always spills

    sim.schedule(0, tick)
    sim.run()
    assert counter["n"] == 4
    assert sim.now == 39
    assert sim.pending_events == 1  # the spilled fifth tick
    sim.stop_requested = False
    sim.run()
    assert counter["n"] == 5
    assert sim.now == 52


# ------------------------------------------------------------------ ring sizing

def test_suggest_ring_size_is_power_of_two_covering_latency():
    for latency in (0, 1, 63, 64, 511, 512, 1000):
        size = suggest_ring_size(latency)
        assert size & (size - 1) == 0
        assert size > latency
