"""Discrete-event simulation engine with a calendar (bucket-ring) queue.

The whole CMP model is driven by one :class:`Simulator`: cores, cache
controllers, the network and the memory model all schedule plain callables at
future cycle times.  Events at the same cycle run in FIFO order of their
scheduling, which keeps simulations fully deterministic for a given seed.

The engine intentionally has no notion of processes or channels — components
communicate by calling each other and scheduling continuations — which keeps
the per-event overhead small enough to simulate tens of millions of events in
pure Python.

Event-queue design (measured with the host-time benchmark under ``bench/``,
whose traced pass reports this module as the ``sim.engine`` layer; see
DESIGN.md "Engine internals"):

Nearly every delay in the model is a small bounded integer — cache hit
latencies, router/link traversals, tag access, the memory latency range — so
a global binary heap pays ``O(log n)`` tuple comparisons per event for an
ordering that is almost always "a handful of cycles from now".  The queue is
therefore a *calendar queue*:

* a power-of-two ring of per-cycle FIFO buckets (``ring_size`` cycles wide,
  sized by the builder from the largest latency in the configuration);
  scheduling within the ring is one list append, and :meth:`run` drains one
  bucket at a time with no per-event heap rebalancing or timestamp
  comparisons,
* a *spill heap* for the rare events scheduled ``>= ring_size`` cycles out
  (long ``Work`` periods, pathological latencies); spilled events migrate
  into the ring as the clock approaches them.

Two invariants make the calendar queue observably identical to the old heap:

* **Same-cycle FIFO.**  A bucket holds exactly one cycle's events in
  scheduling order, and events appended to the *current* bucket by running
  callbacks are picked up by the same drain — so an event scheduled with
  delay 0 runs this cycle, after everything already queued, exactly like the
  ``(time, seq)`` heap ordering did.
* **Spill-before-ring.**  An event can only be scheduled into the ring for
  cycle ``T`` once ``now > T - ring_size``, while every spilled event for
  ``T`` was scheduled when ``now <= T - ring_size`` — strictly earlier.
  Migrating the spill heap before each cycle's drain therefore always places
  spilled events ahead of any ring append for the same cycle, preserving
  global FIFO order.

Hot-path notes:

* :meth:`Simulator.run` finds the next occupied bucket and drains it
  inline; the per-event work is one tuple unpack, one stop-flag load and
  the callback call.  It calls :meth:`Simulator._migrate_spill` only when
  a spilled event has come within one ring width.
* Completion is signalled through :meth:`Simulator.request_stop` (a plain
  attribute check per event); the only other stopping condition is the
  ``max_cycles`` watchdog, checked once per drained bucket.
* :meth:`Simulator.schedule_call` schedules a callable *with arguments*
  without forcing the caller to allocate a closure per event (the network's
  delivery path uses this: one bound method + argument tuple per message).

Set-up notes: a bucket's list is created by the first event scheduled into
it (one ``is None`` test per schedule) and reused after each drain, as cache
sets are created on first fill, dispatch tables once per controller class
and one topology per mesh geometry.  A short run touches few buckets, the
``litmus-fuzz`` benchmark workload builds ~4,860 Systems per pass, and the
cyclic GC traverses every tracked object a System (a reference cycle) holds.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

#: Empty argument tuple shared by all argument-less events.
_NO_ARGS: tuple = ()

#: Default ring width in cycles.  Covers every latency of the default system
#: configurations (memory: 120-230 cycles) with headroom; the builder passes
#: an exact width computed from its config (see ``suggest_ring_size``).
DEFAULT_RING_SIZE = 512


def suggest_ring_size(max_latency: int) -> int:
    """Return a power-of-two ring width covering ``max_latency``-cycle delays.

    The ring must be strictly wider than the largest common delay (events at
    ``delay >= ring_size`` spill to the heap, which is correct but slower).
    """
    size = 64
    while size <= max_latency:
        size <<= 1
    return size


class DeadlockError(RuntimeError):
    """Raised when the event queue drains while some core has not finished.

    This indicates a protocol deadlock (a controller waiting for a message
    that will never arrive) or a workload livelock that stopped generating
    events; the message carries a snapshot of who was still busy.
    """


class Simulator:
    """A minimal but fast discrete-event scheduler.

    Args:
        ring_size: width of the calendar ring in cycles (power of two).
            Delays shorter than this are a list append; longer ones go to
            the spill heap.

    Attributes:
        now: current simulation time (cycles).
        events_executed: total number of events processed so far.
        stop_requested: set by :meth:`request_stop`; :meth:`run` returns
            before executing the next event once this is ``True``.
    """

    __slots__ = ("now", "events_executed", "stop_requested",
                 "_buckets", "_mask", "_ring_size", "_ring_count",
                 "_spill", "_seq")

    def __init__(self, ring_size: int = DEFAULT_RING_SIZE) -> None:
        if ring_size <= 0 or ring_size & (ring_size - 1):
            raise ValueError(
                f"ring_size must be a positive power of two, got {ring_size}")
        self.now: int = 0
        self.events_executed: int = 0
        self.stop_requested: bool = False
        self._ring_size = ring_size
        self._mask = ring_size - 1
        self._buckets: List[Optional[List[tuple]]] = [None] * ring_size
        self._ring_count = 0
        # (time, seq, callback, args) for events >= ring_size cycles out.
        self._spill: List[Tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = itertools.count()

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        Args:
            delay: non-negative number of cycles in the future.
            callback: zero-argument callable executed at that time.
        """
        if 0 <= delay < self._ring_size:
            index = (self.now + delay) & self._mask
            bucket = self._buckets[index]
            if bucket is None:
                bucket = self._buckets[index] = []
            bucket.append((callback, _NO_ARGS))
            self._ring_count += 1
        elif delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        else:
            heapq.heappush(self._spill,
                           (self.now + delay, next(self._seq), callback, _NO_ARGS))

    def schedule_call(self, delay: int, callback: Callable[..., None],
                      *args) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        Equivalent to ``schedule(delay, lambda: callback(*args))`` without
        the per-event closure allocation — used on the network delivery
        path, where one closure per message adds up to millions of objects.
        """
        if 0 <= delay < self._ring_size:
            index = (self.now + delay) & self._mask
            bucket = self._buckets[index]
            if bucket is None:
                bucket = self._buckets[index] = []
            bucket.append((callback, args))
            self._ring_count += 1
        elif delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        else:
            heapq.heappush(self._spill,
                           (self.now + delay, next(self._seq), callback, args))

    def request_stop(self) -> None:
        """Ask :meth:`run` to return before executing the next event.

        This is the completion signal: a completion callback (e.g. the last
        core finishing) flips this flag once, and the run loop checks it as
        one attribute load per event.
        """
        self.stop_requested = True

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue (ring + spill heap)."""
        return self._ring_count + len(self._spill)

    # -- queue internals -----------------------------------------------------

    def _migrate_spill(self, horizon: int) -> None:
        """Move every spilled event due before ``horizon`` into its bucket.

        :meth:`run` calls this before draining cycle ``T`` with horizon
        ``T + ring_size``, so a spilled event always reaches its bucket
        before any ring append for the same cycle can happen, and
        same-cycle FIFO order holds across the ring/spill boundary (see
        the module docstring).
        """
        buckets = self._buckets
        mask = self._mask
        spill = self._spill
        count = 0
        pop = heapq.heappop
        while spill and spill[0][0] < horizon:
            stime, _seq, callback, args = pop(spill)
            bucket = buckets[stime & mask]
            if bucket is None:
                bucket = buckets[stime & mask] = []
            bucket.append((callback, args))
            count += 1
        self._ring_count += count

    # -- execution -----------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> None:
        """Run events until the queue empties or :meth:`request_stop`.

        Args:
            max_cycles: optional hard bound on simulated time.  The *next
                event's own timestamp* is checked **before** its callback
                runs, so an event scheduled past the bound never executes.
                Exceeding the bound raises :class:`RuntimeError` naming the
                offending event time.

        The run ends normally when the event queue empties, or early when
        :meth:`request_stop` was called (the flag is left set; callers that
        reuse the engine afterwards should clear ``stop_requested``).
        """
        spill = self._spill
        buckets = self._buckets
        mask = self._mask
        ring_size = self._ring_size
        while self._ring_count or spill:
            if self.stop_requested:
                return
            # The earliest event: every ring event lies in
            # [now, now + ring_size), so the scan stops within one ring
            # width; with an empty ring it is the spill heap's head.
            if self._ring_count:
                time = self.now
                bucket = buckets[time & mask]
                while not bucket:
                    time += 1
                    bucket = buckets[time & mask]
            else:
                time = spill[0][0]
            if spill and spill[0][0] < time + ring_size:
                self._migrate_spill(time + ring_size)
                # The migration may have created this cycle's bucket.
                bucket = buckets[time & mask]
            if max_cycles is not None and time > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded max_cycles={max_cycles}: next event "
                    f"is scheduled at cycle {time} "
                    f"(events executed: {self.events_executed}, now={self.now})"
                )
            self.now = time
            # Drain the whole bucket inline.  Callbacks may append events for
            # the *current* cycle; the for loop picks them up in FIFO order.
            executed = 0
            try:
                for callback, args in bucket:
                    if self.stop_requested:
                        break
                    executed += 1
                    callback(*args)
            finally:
                # Keep the unexecuted tail (early stop / callback exception);
                # a fully drained bucket is just cleared for reuse.
                if executed == len(bucket):
                    bucket.clear()
                else:
                    del bucket[:executed]
                self._ring_count -= executed
                self.events_executed += executed
