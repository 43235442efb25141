"""Program-driven TSO core model.

:class:`CoreModel` executes one workload program (a generator yielding
:class:`~repro.cpu.instruction.MemOp` objects) against its private L1
controller with TSO semantics:

* loads issue in program order and block until their value is available;
  they first check the write buffer for store-to-load forwarding,
* stores commit into the FIFO write buffer and the program continues; the
  buffer drains to the L1 in the background, strictly in order, one store at
  a time (which is how the protocol guarantees ``w -> w`` propagation order),
* atomic RMWs and fences drain the write buffer before executing,
* ``Work(n)`` models ``n`` cycles of non-memory computation.

This is a deliberately simple timing model compared to the paper's
out-of-order cores (see DESIGN.md): it preserves exactly the orderings TSO
exposes to the coherence protocol, which is what the evaluation is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.cpu.instruction import Fence, Load, MemOp, RMW, Store, Work
from repro.memsys.write_buffer import StoreBufferEntry, WriteBuffer
from repro.sim.simulator import Simulator
from repro.sim.stats import CoreStats


@dataclass
class CoreContext:
    """Per-core context handed to workload programs.

    Attributes:
        core_id: id of the core running the program.
        num_cores: total number of cores in the system (programs often use
            this to partition work).
        params: workload-specific parameters (working-set sizes, iteration
            counts ...), shared across all cores of a workload.
        results: dictionary the program can record results into via
            :meth:`record`; inspected by tests and the consistency checker.
        observer: optional callable ``(core_id, kind, address, value, time)``
            invoked for every completed load / store / RMW; the litmus runner
            uses it to collect execution histories.
    """

    core_id: int
    num_cores: int = 1
    params: Dict[str, Any] = field(default_factory=dict)
    results: Dict[str, Any] = field(default_factory=dict)
    observer: Optional[Callable[[int, str, int, int, int], None]] = None

    def record(self, key: str, value: Any) -> None:
        """Record a named result produced by the program."""
        self.results[key] = value

    def observe(self, kind: str, address: int, value: int, time: int) -> None:
        """Forward a completed memory operation to the observer, if any."""
        if self.observer is not None:
            self.observer(self.core_id, kind, address, value, time)


def capturing_program(program: Callable[["CoreContext"], Any],
                      sink: list) -> Callable[["CoreContext"], Any]:
    """Wrap a workload program so its issued instruction stream is recorded.

    The wrapper is a transparent generator pass-through: every yielded
    operation (and, for value-producing operations, the value sent back) is
    forwarded unchanged, so the wrapped program drives the core identically
    to the bare one.  Each operation is appended to ``sink`` as a
    ``(kind, address, value)`` tuple in program order:

    * ``("load", address, 0)`` / ``("store", address, value)`` /
      ``("fence", 0, 0)`` / ``("work", 0, cycles)`` — recorded at issue;
    * ``("xchg", address, new_value)`` — an RMW, recorded at completion with
      the *new* value it wrote (``modify(old)``).  Replaying it as an atomic
      exchange reproduces the original run exactly: old values are
      deterministic and data values do not affect protocol timing.

    RMWs block the program until completion, so recording them late keeps
    the stream in program order.  This is the capture half of the trace
    subsystem (:mod:`repro.workloads.tracefile`); the core model itself is
    untouched, so runs without capture pay nothing.
    """

    def wrapped(ctx: "CoreContext"):
        generator = program(ctx)
        send_value: Any = None
        started = False
        while True:
            try:
                op = generator.send(send_value) if started else next(generator)
            except StopIteration:
                return
            started = True
            if isinstance(op, Load):
                sink.append(("load", op.address, 0))
                send_value = yield op
            elif isinstance(op, Store):
                sink.append(("store", op.address, op.value))
                send_value = yield op
            elif isinstance(op, RMW):
                send_value = yield op
                sink.append(("xchg", op.address, op.modify(send_value)))
            elif isinstance(op, Fence):
                sink.append(("fence", 0, 0))
                send_value = yield op
            elif isinstance(op, Work):
                sink.append(("work", 0, op.cycles))
                send_value = yield op
            else:
                # Let the core model produce its usual diagnostic.
                send_value = yield op

    return wrapped


class CoreModel:
    """Executes one workload program with TSO semantics.

    Args:
        core_id: this core's id.
        sim: the simulation engine.
        l1: the core's private L1 controller (any object implementing the
            :class:`repro.protocols.base.L1ControllerInterface` protocol).
        write_buffer: the core's FIFO store buffer.
        stats: the :class:`CoreStats` to record into.
        program: generator-function taking a :class:`CoreContext`.
        context: the context passed to the program.
        issue_latency: cycles consumed issuing any instruction (default 1).
        on_finish: optional callable invoked once the program has completed
            *and* the write buffer has fully drained.
    """

    def __init__(
        self,
        core_id: int,
        sim: Simulator,
        l1,
        write_buffer: WriteBuffer,
        stats: CoreStats,
        program: Callable[[CoreContext], Any],
        context: CoreContext,
        issue_latency: int = 1,
        on_finish: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.core_id = core_id
        self.sim = sim
        self.l1 = l1
        self.write_buffer = write_buffer
        self.stats = stats
        self.context = context
        self.issue_latency = max(1, issue_latency)
        self.on_finish = on_finish

        self._generator = program(context)
        self._program_done = False
        self.finished = False

        self._store_in_flight = False
        self._stalled_store: Optional[Store] = None
        self._pending_sync: Optional[MemOp] = None
        # Observer fast path: workloads run without an observer, so the
        # completion callbacks can skip the observe step (and its closure
        # allocations) entirely; the litmus runner takes the slow path.
        self._observe = context.observe if context.observer is not None else None
        self._buffered = write_buffer.entries

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Schedule the first instruction of the program."""
        self.sim.schedule_call(0, self._advance, None)

    @property
    def done(self) -> bool:
        """``True`` once the program finished and all stores drained."""
        return self.finished

    def describe_stall(self) -> str:
        """What this unfinished core is waiting for (for deadlock reports):
        its L1's outstanding transactions and its write-buffer state."""
        flight = "a store in flight" if self._store_in_flight else "no store in flight"
        return (f"core {self.core_id}: {self.l1.describe_pending()}; "
                f"write buffer depth {len(self.write_buffer)}, {flight}")

    # -- program driving ------------------------------------------------------

    def _advance(self, send_value: Optional[int]) -> None:
        """Fetch the next operation from the program and execute it.

        Dispatch is inlined here (rather than a separate ``_execute``
        method) because this resume-dispatch pair runs once per program
        operation; types are checked most-frequent first (loads, then
        ``Work``, dominate every workload).  The first call (from :meth:`start`) sends
        ``None``, which starts the generator.
        """
        try:
            op = self._generator.send(send_value)
        except StopIteration:
            self._program_done = True
            self._try_finish()
            return
        if isinstance(op, Load):
            stats = self.stats
            stats.loads += 1
            stats.memory_ops += 1
            if self._observe is None and not self._buffered:
                # No buffered store to forward from and nothing to observe:
                # the L1 resumes the program directly.
                self.l1.issue_load(op.address, self._advance)
            else:
                self._execute_load(op)
        elif isinstance(op, Work):
            self.stats.work_cycles += op.cycles
            self.sim.schedule_call(max(1, op.cycles), self._advance, None)
        elif isinstance(op, Store):
            self._execute_store(op)
        elif isinstance(op, RMW):
            self._execute_sync(op)
        elif isinstance(op, Fence):
            self._execute_sync(op)
        else:
            raise TypeError(f"program yielded unsupported operation {op!r}")

    # -- loads ----------------------------------------------------------------

    def _execute_load(self, op: Load) -> None:
        """A load that may forward from the write buffer or that the
        observer sees (``_advance`` issues the rest straight to the L1)."""
        forwarded = self.write_buffer.forward(op.address)
        if self._observe is None:
            # No observer: the completion step is just resuming the program,
            # so the L1 (or the forwarding delay) can call _advance directly
            # — same events, no closure per load.
            if forwarded is not None:
                self.sim.schedule_call(self.issue_latency, self._advance,
                                       forwarded)
            else:
                self.l1.issue_load(op.address, self._advance)
            return
        if forwarded is not None:
            # Store-to-load forwarding: the youngest buffered store to the
            # same address supplies the value without touching the cache.
            value = forwarded

            def complete_forward() -> None:
                self.context.observe("load", op.address, value, self.sim.now)
                self._advance(value)

            self.sim.schedule(self.issue_latency, complete_forward)
            return

        def complete(value: int) -> None:
            self.context.observe("load", op.address, value, self.sim.now)
            self._advance(value)

        self.l1.issue_load(op.address, complete)

    # -- stores ---------------------------------------------------------------

    def _execute_store(self, op: Store) -> None:
        self.stats.stores += 1
        self.stats.memory_ops += 1
        if self.write_buffer.is_full:
            # Stall the program until the head of the buffer drains.
            self.stats.wb_full_stalls += 1
            self._stalled_store = op
            return
        self._commit_store(op)
        self.sim.schedule_call(self.issue_latency, self._advance, None)

    def _commit_store(self, op: Store) -> None:
        entry = StoreBufferEntry(address=op.address, value=op.value,
                                 issue_time=self.sim.now)
        self.write_buffer.enqueue(entry)
        if self._observe is not None:
            self._observe("store", op.address, op.value, self.sim.now)
        self._maybe_start_drain()

    def _maybe_start_drain(self) -> None:
        if self._store_in_flight or self.write_buffer.is_empty:
            return
        entry = self.write_buffer.head()
        assert entry is not None
        self._store_in_flight = True
        self.l1.issue_store(entry.address, entry.value, self._store_drained)

    def _store_drained(self) -> None:
        self._store_in_flight = False
        self.write_buffer.dequeue()
        # A stalled store can now commit.
        if self._stalled_store is not None and not self.write_buffer.is_full:
            op = self._stalled_store
            self._stalled_store = None
            self._commit_store(op)
            self.sim.schedule_call(self.issue_latency, self._advance, None)
        # Fences / RMWs wait for an empty buffer.
        if self._pending_sync is not None and self.write_buffer.is_empty:
            pending = self._pending_sync
            self._pending_sync = None
            self._run_sync(pending)
        self._maybe_start_drain()
        self._try_finish()

    # -- fences and atomics -----------------------------------------------------

    def _execute_sync(self, op: MemOp) -> None:
        if isinstance(op, RMW):
            self.stats.rmws += 1
            self.stats.memory_ops += 1
        else:
            self.stats.fences += 1
        if self.write_buffer.is_empty and not self._store_in_flight:
            self._run_sync(op)
        else:
            self._pending_sync = op

    def _run_sync(self, op: MemOp) -> None:
        if isinstance(op, RMW):
            if self._observe is None:
                self.l1.issue_rmw(op.address, op.modify, self._advance)
                return

            def complete(old_value: int) -> None:
                self.context.observe("rmw", op.address, old_value, self.sim.now)
                self._advance(old_value)

            self.l1.issue_rmw(op.address, op.modify, complete)
        elif isinstance(op, Fence):
            self.l1.issue_fence(lambda: self._advance(None))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected sync operation {op!r}")

    # -- completion -------------------------------------------------------------

    def _try_finish(self) -> None:
        if (
            self._program_done
            and not self.finished
            and self.write_buffer.is_empty
            and not self._store_in_flight
        ):
            self.finished = True
            self.stats.finish_time = self.sim.now
            if self.on_finish is not None:
                self.on_finish(self.core_id)
