"""Controller interfaces and shared plumbing for coherence protocols.

Every protocol plugin (see :mod:`repro.protocols.registry`) is implemented
as a pair of message-driven controllers:

* an **L1 controller** per core, servicing the core's loads / stores / RMWs /
  fences against the private L1 cache and talking to the home L2 tile over
  the network, and
* an **L2 controller** per NUCA tile, owning a slice of the shared cache
  (with directory metadata where the protocol needs it) and the path to main
  memory.

The base classes here provide the protocol-independent plumbing, so each
concrete controller is essentially just its state machine:

* message construction and sending,
* home-tile lookup,
* per-line *pending transaction* tracking at the L1 (one outstanding
  transaction per line; later core operations on the same line are deferred
  and replayed on completion),
* operation completion accounting (load/store/RMW latency statistics),
* transaction retirement (:meth:`BaseL1Controller.finish_txn_with_line`:
  performing the deferred load/store/RMW against the just-installed line),
* line installation with victim selection and the private-line writeback
  path (PutM/PutE plus the in-flight eviction buffer),
* invalidation handling (copy drop, in-flight-response poisoning, InvAck),
* per-line request *blocking* at the L2 (while a line is in a transient
  state — e.g. waiting for an owner's acknowledgement — later requests are
  queued and replayed in arrival order),
* L2 line allocation with busy-way retry, the writeback/recall collection
  machinery, and the memory fetch / writeback path.

Protocol subclasses supply the state enums (``state_enum``,
``shared_state``, ``modified_state`` at the L1; ``exclusive_state``,
``idle_state`` at the L2) and override the small hooks
(:meth:`BaseL1Controller.on_line_written`, :meth:`BaseL1Controller.put_info`,
:meth:`BaseL2Controller.on_put_writeback`,
:meth:`BaseL2Controller.on_recalled_wb_data`) where they need to attach
protocol-specific metadata (e.g. TSO-CC timestamps) to the shared flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional, Protocol

from repro.interconnect.message import NUM_MESSAGE_TYPES, Message, MessageType
from repro.interconnect.network import Network
from repro.interconnect.topology import MeshTopology
from repro.memsys.address import AddressMap
from repro.memsys.cache import CacheArray
from repro.memsys.cacheline import CacheLine
from repro.memsys.memory import MainMemory
from repro.sim.simulator import Simulator
from repro.sim.stats import L1Stats, L2Stats


class L1ControllerInterface(Protocol):
    """What a :class:`~repro.cpu.core_model.CoreModel` needs from its L1."""

    def issue_load(self, address: int, callback: Callable[[int], None]) -> None:
        """Perform a word load; ``callback(value)`` fires on completion."""

    def issue_store(self, address: int, value: int, callback: Callable[[], None]) -> None:
        """Perform a word store; ``callback()`` fires once the store has been
        performed in the L1 (i.e. the line is writable and updated)."""

    def issue_rmw(
        self, address: int, modify: Callable[[int], int], callback: Callable[[int], None]
    ) -> None:
        """Perform an atomic read-modify-write; ``callback(old_value)``."""

    def issue_fence(self, callback: Callable[[], None]) -> None:
        """Perform a fence; ``callback()`` fires when it completes."""

    def handle_message(self, msg: Message) -> None:
        """Process a network message addressed to this controller."""

    def describe_pending(self) -> str:
        """The outstanding transactions, for deadlock reports."""


class L2ControllerInterface(Protocol):
    """Network-facing interface of an L2 tile controller."""

    def handle_message(self, msg: Message) -> None:
        """Process a network message addressed to this tile."""


@dataclass(slots=True)
class PendingTransaction:
    """One outstanding L1 miss / upgrade transaction for a cache line.

    Slotted: these records sit on the hot allocation path (one per L1 miss)
    of multi-million-event runs.

    Attributes:
        kind: ``"load"``, ``"store"``, ``"rmw"`` or ``"fence"``.
        line_address: the line the transaction concerns.
        address: the word address of the triggering operation.
        value: store value (stores only).
        modify: RMW modify function (RMWs only).
        callback: completion callback supplied by the core model.
        start_time: issue time, used for latency statistics.
        deferred: operations on the same line issued while this transaction
            was outstanding; replayed once it completes.
        inv_raced: an invalidation arrived while the transaction was
            outstanding, so shared data it receives is used once and not
            kept.
    """

    kind: str
    line_address: int
    address: int
    value: Optional[int] = None
    modify: Optional[Callable[[int], int]] = None
    callback: Optional[Callable] = None
    start_time: int = 0
    deferred: List[Callable[[], None]] = field(default_factory=list)
    inv_raced: bool = False


def compile_dispatch(cls: type) -> tuple:
    """Compile a controller class's ``message_handlers`` into a flat tuple
    of plain functions indexed by ``MessageType.index``, each called as
    ``handler(controller, msg)``.

    Handler names are resolved against ``cls`` when the class is defined,
    so subclass overrides are honoured; unhandled types stay ``None`` and
    fail loudly in ``handle_message``.
    """
    table: List[Optional[Callable]] = [None] * NUM_MESSAGE_TYPES
    for mtype, name in cls.message_handlers.items():
        table[mtype.index] = getattr(cls, name)
    return tuple(table)


class BaseL1Controller:
    """Shared plumbing for L1 cache controllers.

    Subclasses must set the protocol state attributes (``state_enum``,
    ``shared_state``, ``modified_state``) and implement ``handle_message``
    and ``_evict``.

    Args:
        core_id: id of the core this L1 belongs to.
        sim: simulation engine.
        network: on-chip network.
        topology: mesh topology (for node ids).
        address_map: address arithmetic helper.
        cache: the private L1 data cache array.
        stats: statistics sink.
        hit_latency: L1 hit latency in cycles.
    """

    #: Display label used in protocol-invariant error messages.
    protocol_label: ClassVar[str] = "L1"
    #: Enum type of this protocol's stable L1 states.
    state_enum: ClassVar[Optional[type]] = None
    #: State installed for shared data responses / downgrades.
    shared_state: ClassVar[Any] = None
    #: State a line enters when the core writes it.
    modified_state: ClassVar[Any] = None
    #: MessageType -> handler *method name*.  Each protocol declares its
    #: transition table once at class level; every subclass compiles it into
    #: its own ``_dispatch_table`` when it is defined (see ``compile_dispatch``)
    #: and ``handle_message`` becomes two tuple indexings instead of a dict
    #: lookup per delivered message.
    message_handlers: ClassVar[Dict[MessageType, str]] = {}
    _dispatch_table: ClassVar[tuple] = (None,) * NUM_MESSAGE_TYPES

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._dispatch_table = compile_dispatch(cls)
        cls._build_tables()

    def __init__(
        self,
        core_id: int,
        sim: Simulator,
        network: Network,
        topology: MeshTopology,
        address_map: AddressMap,
        cache: CacheArray,
        stats: L1Stats,
        hit_latency: int = 3,
    ) -> None:
        self.core_id = core_id
        self.sim = sim
        self.network = network
        self.topology = topology
        self.address_map = address_map
        self.cache = cache
        self.stats = stats
        self.hit_latency = hit_latency
        self.node_id = topology.l1_node(core_id)
        self._pending: Dict[int, PendingTransaction] = {}
        self._evicting: Dict[int, CacheLine] = {}
        # line address -> operations waiting for the line: the ``deferred``
        # list of its pending transaction, or the waiters of its in-flight
        # writeback (re-requesting the line before the writeback is
        # acknowledged could let the L2 answer with stale data).  A line
        # never has both: install never evicts a line with a pending
        # transaction, and operations on an evicting line wait.  So an
        # issue path decides "wait or go" with one lookup here, and
        # allocates its retry closure only when it waits.
        self._waiting: Dict[int, List[Callable[[], None]]] = {}
        self._line_mask = address_map.line_mask
        self._offset_mask = address_map.offset_mask
        self._offset_bits = address_map.offset_bits
        #: Node id of every core's L1, indexed by core id.
        self.l1_nodes = topology.l1_nodes
        # Node id of every home tile, indexed by tile id (see home_node).
        self._home_nodes = topology.l2_nodes
        # The class's table; an instance attribute loads faster per message.
        self._dispatch = self._dispatch_table
        # Prebound victim filter for install_line (one closure per controller
        # instead of one per install).
        pending = self._pending
        self._install_victim_filter = lambda cand: cand.address not in pending
        network.register(self.node_id, self)

    @classmethod
    def _build_tables(cls) -> None:
        """Hook for protocols that derive extra per-class transition tables
        (e.g. data-response → install-state) when the class is defined."""

    # -- messaging ------------------------------------------------------------

    def handle_message(self, msg: Message) -> None:
        """Dispatch a network message through the compiled transition table."""
        handler = self._dispatch[msg.mtype.index]
        if handler is None:
            raise RuntimeError(
                f"{self.protocol_label} L1[{self.core_id}]: unexpected message {msg!r}")
        handler(self, msg)

    def home_node(self, address: int) -> int:
        """Network node id of the home L2 tile for ``address`` (lines are
        interleaved across tiles, as :meth:`AddressMap.home_tile`)."""
        home_nodes = self._home_nodes
        return home_nodes[(address >> self._offset_bits) % len(home_nodes)]

    def send(
        self,
        mtype: MessageType,
        dst: int,
        address: Optional[int] = None,
        data: Optional[Dict[int, int]] = None,
        delay: int = 0,
        **info: Any,
    ) -> Message:
        """Build and send a message from this controller.

        ``delay`` adds controller occupancy (e.g. tag access latency) on top
        of the network latency before the message is delivered.

        The message comes from the network's free list and is recycled after
        delivery; receivers that keep it must call :meth:`Message.retain`.
        """
        return self.network.send(mtype, self.node_id, dst, address, data,
                                 info, delay)

    # -- pending transaction management ----------------------------------------

    def start_transaction(self, txn: PendingTransaction) -> None:
        """Register ``txn`` as the outstanding transaction for its line."""
        if txn.line_address in self._pending:
            raise RuntimeError(
                f"L1[{self.core_id}]: line {txn.line_address:#x} already has a "
                f"pending transaction"
            )
        self._pending[txn.line_address] = txn
        self._waiting[txn.line_address] = txn.deferred

    def finish_transaction(self, line_address: int) -> None:
        """Complete the transaction on ``line_address`` and replay deferred
        operations (each rescheduled at the current time)."""
        txn = self._pending.pop(line_address, None)
        if txn is None:
            return
        del self._waiting[line_address]
        for retry in txn.deferred:
            self.sim.schedule(0, retry)

    def describe_pending(self) -> str:
        """The outstanding transactions (kind, line address, issue cycle
        and the home L2 tile the request went to), for deadlock reports."""
        return ", ".join(
            f"pending {txn.kind} of line {txn.line_address:#x} issued at "
            f"cycle {txn.start_time}, awaiting L2 tile "
            f"{self.address_map.home_tile(txn.line_address)}"
            for txn in self._pending.values()
        ) or "no pending L1 transaction"

    def response_txn(self, msg: Message) -> PendingTransaction:
        """Return the pending transaction a data response belongs to,
        failing loudly on unsolicited responses."""
        assert msg.address is not None
        txn = self._pending.get(msg.address)
        if txn is None:
            raise RuntimeError(
                f"{self.protocol_label} L1[{self.core_id}]: data response for "
                f"{msg.address:#x} without a pending transaction"
            )
        return txn

    # -- eviction buffer ---------------------------------------------------------

    def hold_evicting(self, line: CacheLine) -> None:
        """Hold a line being written back until the L2 acknowledges it, so
        forwarded requests that race with the writeback can still be served."""
        self._evicting[line.address] = line
        self._waiting.setdefault(line.address, [])

    def evicting_line(self, address: int) -> Optional[CacheLine]:
        """Return the in-flight-writeback line for ``address`` if any."""
        return self._evicting.get(address & self._line_mask)

    def release_evicting(self, address: int) -> Optional[CacheLine]:
        """Drop (and return) the in-flight-writeback line for ``address`` and
        wake any operations that were waiting for the writeback to finish."""
        line_addr = address & self._line_mask
        line = self._evicting.pop(line_addr, None)
        if line is not None:
            for retry in self._waiting.pop(line_addr):
                self.sim.schedule(0, retry)
        return line

    # -- completion accounting -------------------------------------------------

    # Each operation completes ``hit_latency`` cycles from now, as one event
    # that calls the core's callback directly.  Its count and latency are
    # recorded here, when the completion is scheduled: the latency
    # (now + hit_latency - start) is already known, and a run cannot end
    # with a completion still queued (a core finishes only after its last
    # operation completed; any other early end raises), so the end-of-run
    # statistics are the same as counting at completion time.

    def _complete_load(self, callback: Callable[[int], None], value: int, start: int) -> None:
        stats = self.stats
        stats.loads += 1
        stats.load_latency_total += self.sim.now + self.hit_latency - start
        self.sim.schedule_call(self.hit_latency, callback, value)

    def _complete_store(self, callback: Callable[[], None], start: int) -> None:
        stats = self.stats
        stats.stores += 1
        stats.store_latency_total += self.sim.now + self.hit_latency - start
        self.sim.schedule(self.hit_latency, callback)

    def _complete_rmw(self, callback: Callable[[int], None], old: int, start: int) -> None:
        stats = self.stats
        stats.rmws += 1
        stats.rmw_latency_total += self.sim.now + self.hit_latency - start
        self.sim.schedule_call(self.hit_latency, callback, old)

    # -- transaction retirement --------------------------------------------------

    def on_line_written(self, line: CacheLine) -> None:
        """Hook invoked after the core performs a write on ``line`` during
        transaction retirement (TSO-CC stamps the line's timestamp here)."""

    def finish_txn_with_line(self, txn: PendingTransaction, line: CacheLine) -> None:
        """Retire ``txn`` against the just-installed ``line``: perform the
        deferred load/store/RMW, replay queued operations and complete."""
        offset = self.address_map.line_offset(txn.address)
        callback = txn.callback
        kind = txn.kind
        start = txn.start_time
        if kind == "load":
            value = line.read_word(offset)
            self.finish_transaction(txn.line_address)
            self._complete_load(callback, value, start)
        elif kind == "store":
            assert txn.value is not None
            line.write_word(offset, txn.value)
            line.state = self.modified_state
            self.on_line_written(line)
            self.finish_transaction(txn.line_address)
            self._complete_store(callback, start)
        elif kind == "rmw":
            assert txn.modify is not None
            old = line.read_word(offset)
            line.write_word(offset, txn.modify(old))
            line.state = self.modified_state
            self.on_line_written(line)
            self.finish_transaction(txn.line_address)
            self._complete_rmw(callback, old, start)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unexpected transaction kind {kind!r}")

    # -- install / writeback path -------------------------------------------------

    def install_line(self, line_address: int, data: Dict[int, int], state: Any) -> CacheLine:
        """Install a data response: merge into an existing copy or insert a
        fresh line, evicting a victim (never a line with an outstanding
        transaction) through the protocol's ``_evict``."""
        existing = self.cache.get_line(line_address)
        if existing is not None:
            existing.merge_data(data)
            existing.state = state
            existing.dirty = False
            return existing
        line = CacheLine(address=line_address, state=state)
        line.merge_data(data)
        victim = self.cache.insert(line,
                                   victim_filter=self._install_victim_filter)
        if victim is not None:
            self._evict(victim)
        return line

    def put_info(self, victim: CacheLine, dirty: bool) -> Dict[str, Any]:
        """Info fields attached to a Put message (protocols add metadata)."""
        return {"owner": self.core_id, "dirty": dirty}

    def writeback_victim(self, victim: CacheLine) -> None:
        """Write a private (Exclusive/Modified) victim back to its home tile:
        hold it in the eviction buffer until the PutAck arrives and send PutM
        (dirty or Modified) or PutE (clean)."""
        self.hold_evicting(victim)
        dirty = victim.dirty or victim.state is self.modified_state
        mtype = MessageType.PUTM if dirty else MessageType.PUTE
        self.send(mtype, self.home_node(victim.address),
                  address=victim.address,
                  data=victim.copy_data() if mtype is MessageType.PUTM else None,
                  **self.put_info(victim, dirty))

    def _evict(self, victim: CacheLine) -> None:  # pragma: no cover - abstract
        """Evict ``victim`` from the cache (implemented per protocol)."""
        raise NotImplementedError

    # -- invalidations -----------------------------------------------------------

    def handle_invalidation(self, msg: Message) -> None:
        """Drop our copy of the invalidated line, poison any data response
        still in flight towards us (so it is used once but not cached as a
        stale copy) and acknowledge the sender."""
        assert msg.address is not None
        if self.cache.get_line(msg.address) is not None:
            self.cache.remove(msg.address)
        txn = self._pending.get(msg.address)
        if txn is not None:
            txn.inv_raced = True
        self.stats.invalidations_received += 1
        self.send(MessageType.INV_ACK, msg.src, address=msg.address,
                  acker=self.core_id)

    # -- helpers -------------------------------------------------------------------

    def after(self, delay: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` after ``delay`` cycles."""
        self.sim.schedule(delay, fn)

    def complete_with_latency(self, fn: Callable[[], None], latency: Optional[int] = None) -> None:
        """Run ``fn`` after the L1 hit latency (or ``latency`` cycles)."""
        self.sim.schedule(self.hit_latency if latency is None else latency, fn)


class BaseL2Controller:
    """Shared plumbing for L2 tile controllers.

    Subclasses must set the directory state attributes (``exclusive_state``,
    ``idle_state``) and implement ``handle_message`` and ``_evict_victim``.

    Args:
        tile_id: id of this L2 tile.
        sim: simulation engine.
        network: on-chip network.
        topology: mesh topology.
        address_map: address arithmetic helper.
        cache: this tile's slice of the shared cache.
        memory: backing main memory.
        stats: statistics sink.
        access_latency: tag/data access latency of the tile in cycles.
    """

    #: Display label used in protocol-invariant error messages.
    protocol_label: ClassVar[str] = "L2"
    #: Directory state meaning "a single tracked L1 owner".
    exclusive_state: ClassVar[Any] = None
    #: Directory state meaning "no tracked L1 copies".
    idle_state: ClassVar[Any] = None
    #: MessageType -> handler *method name* (see BaseL1Controller).
    message_handlers: ClassVar[Dict[MessageType, str]] = {}
    _dispatch_table: ClassVar[tuple] = (None,) * NUM_MESSAGE_TYPES
    #: Message types that must wait while their line is in a transient
    #: (blocked) state — requests and writebacks, but never the acks that
    #: resolve the transient state.
    blocking_types: ClassVar[frozenset] = frozenset()
    #: ``blocking_types`` as a flat bool tuple indexed by ``MessageType.index``.
    _blocking_table: ClassVar[tuple] = (False,) * NUM_MESSAGE_TYPES

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._dispatch_table = compile_dispatch(cls)
        cls._blocking_table = tuple(mtype in cls.blocking_types
                                    for mtype in MessageType)

    def __init__(
        self,
        tile_id: int,
        sim: Simulator,
        network: Network,
        topology: MeshTopology,
        address_map: AddressMap,
        cache: CacheArray,
        memory: MainMemory,
        stats: L2Stats,
        access_latency: int = 20,
    ) -> None:
        self.tile_id = tile_id
        self.sim = sim
        self.network = network
        self.topology = topology
        self.address_map = address_map
        self.cache = cache
        self.memory = memory
        self.stats = stats
        self.access_latency = access_latency
        self.node_id = topology.l2_node(tile_id)
        self._line_mask = address_map.line_mask
        #: Node id of every core's L1, indexed by core id.
        self.l1_nodes = topology.l1_nodes
        # line address -> queued messages waiting for the line to unblock
        self._blocked: Dict[int, List[Message]] = {}
        # line address -> in-progress recall/eviction bookkeeping
        self._recalls: Dict[int, Dict] = {}
        self._dispatch = self._dispatch_table
        self._blocking = self._blocking_table
        # Prebound eviction filter for allocate_line (one closure per tile
        # instead of one per allocation): a blocked or mid-recall line is
        # busy.  Resident lines are keyed by their line address.
        blocked = self._blocked
        recalls = self._recalls
        self._can_evict = lambda cand: (
            cand.address not in blocked and cand.address not in recalls)
        network.register(self.node_id, self)

    # -- messaging ------------------------------------------------------------

    def send(
        self,
        mtype: MessageType,
        dst: int,
        address: Optional[int] = None,
        data: Optional[Dict[int, int]] = None,
        delay: int = 0,
        **info: Any,
    ) -> Message:
        """Build and send a message from this tile.

        ``delay`` adds tile occupancy (e.g. the tag/data access latency) on
        top of the network latency before the message is delivered.

        The message comes from the network's free list and is recycled after
        delivery; receivers that keep it must call :meth:`Message.retain`.
        """
        return self.network.send(mtype, self.node_id, dst, address, data,
                                 info, delay)

    # -- line blocking -----------------------------------------------------------

    def block(self, address: int) -> None:
        """Put the line of ``address`` into a transient (blocked) state."""
        line_addr = address & self._line_mask
        if line_addr in self._blocked:
            raise RuntimeError(
                f"L2[{self.tile_id}]: line {line_addr:#x} is already blocked"
            )
        self._blocked[line_addr] = []

    def defer_if_blocked(self, msg: Message) -> bool:
        """Queue ``msg`` for replay if its line is blocked; return ``True``
        if it was queued."""
        if msg.address is None:
            return False
        queue = self._blocked.get(msg.address & self._line_mask)
        if queue is None:
            return False
        # The message outlives its delivery callback; keep it off the free list.
        msg.retained = True
        queue.append(msg)
        return True

    def unblock(self, address: int) -> None:
        """Leave the transient state for the line of ``address`` and replay
        any queued messages in arrival order."""
        queue = self._blocked.pop(address & self._line_mask, None)
        if not queue:
            return
        for queued in queue:
            self.sim.schedule_call(0, self.handle_message, queued)

    # -- allocation -----------------------------------------------------------------

    def allocate_line(self, line_addr: int) -> Optional[CacheLine]:
        """Insert an empty line, evicting (and possibly recalling) a victim
        through the protocol's ``_evict_victim``.

        Returns ``None`` when every candidate way is busy (blocked
        mid-transaction or mid-recall), in which case the caller retries
        shortly.
        """
        can_evict = self._can_evict
        if self.cache.needs_eviction(line_addr) and self.cache.pick_victim(
                line_addr, victim_filter=can_evict) is None:
            return None
        line = CacheLine(address=line_addr, state=None)
        victim = self.cache.insert(line, victim_filter=can_evict)
        if victim is not None:
            self._evict_victim(victim)
        return line

    def record_l2_eviction(self, victim: CacheLine) -> None:
        """Count one L2 eviction under the victim's state name."""
        self.stats.evictions[victim.state.value if victim.state else "none"] += 1

    def _evict_victim(self, victim: CacheLine) -> None:  # pragma: no cover - abstract
        """Evict ``victim`` from this tile (implemented per protocol)."""
        raise NotImplementedError

    # -- L1 writebacks (Put*) --------------------------------------------------------

    def on_put_writeback(self, line: CacheLine, msg: Message) -> None:
        """Hook invoked when a dirty Put merged data into ``line`` (TSO-CC
        records the writer's timestamp here)."""

    def handle_put(self, msg: Message, dirty: bool) -> None:
        """Process a PutE/PutM from an L1: absorb the data if the put is
        dirty and the sender really is the tracked owner, drop the owner
        tracking and acknowledge."""
        assert msg.address is not None
        line = self.cache.get_line(msg.address)
        owner = msg.info["owner"]
        if (
            line is not None
            and line.state is self.exclusive_state
            and line.owner == owner
        ):
            if dirty and msg.data is not None:
                line.merge_data(msg.data)
                line.dirty = True
                self.on_put_writeback(line, msg)
            line.state = self.idle_state
            line.owner = None
        self.send(MessageType.PUT_ACK, msg.src, address=msg.address)

    # -- recalls (L2 evictions of tracked lines) ---------------------------------------

    def begin_recall(self, victim: CacheLine, pending: int,
                     dirty: Optional[bool] = None) -> None:
        """Start collecting ``pending`` responses for an evicted tracked
        line; the line stays blocked until every response arrived."""
        self.stats.recalls += 1
        self.block(victim.address)
        self._recalls[victim.address] = {
            "pending": pending,
            "data": victim.copy_data(),
            "dirty": victim.dirty if dirty is None else dirty,
        }

    def recall_in_progress(self, address: int) -> bool:
        """``True`` while a recall of ``address`` is collecting responses."""
        return address in self._recalls

    def advance_recall(self, address: int) -> None:
        """Account one recall response; on the last one, write the collected
        line back to memory (if dirty) and unblock the line."""
        recall = self._recalls[address]
        recall["pending"] -= 1
        if recall["pending"] > 0:
            return
        self._recalls.pop(address)
        if recall["dirty"]:
            self.writeback_to_memory(address, recall["data"])
        self.unblock(address)

    def on_recalled_wb_data(self, msg: Message) -> None:
        """Hook invoked for writeback data that answers a recall (TSO-CC
        records the owner's timestamp here)."""

    def handle_wb_data(self, msg: Message) -> None:
        """Process WB_DATA: fold it into the recall it answers, or — for an
        unsolicited writeback (e.g. a race with an already-handled PutM) —
        send dirty data straight to memory."""
        assert msg.address is not None
        recall = self._recalls.get(msg.address)
        if recall is None:
            if msg.info.get("dirty") and msg.data is not None:
                self.writeback_to_memory(msg.address, msg.data)
            return
        if msg.info.get("dirty") and msg.data is not None:
            recall["data"].update(msg.data)
            recall["dirty"] = True
        self.on_recalled_wb_data(msg)
        self.advance_recall(msg.address)

    # -- memory path ---------------------------------------------------------------

    def fetch_from_memory(self, address: int, callback: Callable[[Dict[int, int]], None]) -> None:
        """Read the line of ``address`` from main memory; ``callback(data)``
        fires after the memory latency."""
        self.stats.memory_reads += 1
        latency = self.memory.access_latency()
        line_addr = self.address_map.line_address(address)
        self.sim.schedule_call(latency, self._memory_fetch_done,
                               line_addr, callback)

    def _memory_fetch_done(self, line_addr: int,
                           callback: Callable[[Dict[int, int]], None]) -> None:
        callback(self.memory.read_line(line_addr))

    def writeback_to_memory(self, address: int, data: Dict[int, int]) -> None:
        """Write the line of ``address`` back to main memory (fire and
        forget; latency is off the critical path)."""
        self.stats.memory_writes += 1
        self.memory.write_line(self.address_map.line_address(address), data)

    # -- misc -------------------------------------------------------------------------

    def after(self, delay: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` after ``delay`` cycles."""
        self.sim.schedule(delay, fn)

    def handle_message(self, msg: Message) -> None:
        """Dispatch one message through the precomputed handler table.

        Requests and writebacks (the protocol's ``blocking_types``) to lines
        in transient states are queued and replayed when the line unblocks:
        e.g. processing a PutM while a forwarded request to its sender is
        still in flight would acknowledge the writeback early and let the
        owner drop the line before serving the forward.
        """
        index = msg.mtype.index
        if self._blocked and self._blocking[index] \
                and self.defer_if_blocked(msg):
            return
        handler = self._dispatch[index]
        if handler is None:
            raise RuntimeError(
                f"{self.protocol_label} L2[{self.tile_id}]: unexpected message {msg!r}")
        handler(self, msg)
