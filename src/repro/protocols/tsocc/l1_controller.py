"""TSO-CC private-cache (L1) controller.

Implements the L1 side of the protocol of §3 of the paper:

* **Reads** hit on private (Exclusive/Modified) and SharedRO lines freely;
  hits on Shared lines are bounded by the per-line access counter ``b.acnt``
  — once the counter saturates the read is forced to re-request the line
  from the L2, which is what guarantees eventual write propagation to
  acquire-like polling reads.
* **Self-invalidation**: every data response installs a line and may
  self-invalidate all Shared lines, which (together with program-order write
  propagation) enforces the ``r -> r`` ordering of TSO.  With the
  transitive-reduction optimization the self-invalidation is skipped when
  the response's timestamp proves the corresponding write has already been
  observed.
* **Writes** need Exclusive/Modified permission; write misses send ``GetX``
  to the home L2 tile, and every performed write stamps the line with the
  core's current timestamp (write-grouped, bounded, with reset broadcasts).
* **Fences and atomics** (§3.6): fences self-invalidate all Shared lines;
  atomics are handled like write misses and measured for Figure 8.
* The controller also acts as the *owner* side of forwarded requests
  (downgrades on remote reads, ownership transfers on remote writes) and
  reacts to SharedRO broadcast invalidations, recalls and timestamp resets.

Only the TSO-CC state machine lives here; the pending-transaction replay,
install/evict, writeback and invalidation plumbing comes from
:class:`~repro.protocols.base.BaseL1Controller`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.interconnect.message import Message, MessageType
from repro.memsys.cacheline import CacheLine
from repro.protocols.base import BaseL1Controller, PendingTransaction
from repro.protocols.tsocc.config import TSOCCConfig
from repro.protocols.tsocc.states import TSOCCL1State
from repro.protocols.tsocc.timestamps import EpochTable, TimestampSource, TimestampTable


class TSOCCL1Controller(BaseL1Controller):
    """L1 cache controller implementing the TSO-CC protocol."""

    protocol_label = "TSO-CC"
    state_enum = TSOCCL1State
    shared_state = TSOCCL1State.SHARED
    modified_state = TSOCCL1State.MODIFIED
    message_handlers = {
        MessageType.DATA_E: "_on_data",
        MessageType.DATA_S: "_on_data",
        MessageType.DATA_SRO: "_on_data",
        MessageType.DATA_X: "_on_data",
        MessageType.DATA_OWNER: "_on_data",
        MessageType.FWD_GETS: "_on_fwd_gets",
        MessageType.FWD_GETX: "_on_fwd_getx",
        MessageType.INV: "handle_invalidation",
        MessageType.RECALL: "_on_recall",
        MessageType.PUT_ACK: "_on_put_ack",
        MessageType.TS_RESET: "_on_ts_reset",
    }

    def __init__(
        self,
        *args,
        protocol_config: TSOCCConfig,
        num_cores: int,
        num_l2_tiles: int,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.config = protocol_config
        # Derived config values, read on every Shared hit / data response
        # (the config computes them per access).
        self._max_shared_hits = protocol_config.max_shared_hits
        self._write_grouped = protocol_config.write_group_size > 1
        self.num_cores = num_cores
        self.num_l2_tiles = num_l2_tiles
        if protocol_config.use_timestamps:
            self.ts_source: Optional[TimestampSource] = TimestampSource(
                bits=protocol_config.ts_bits,
                write_group_size=protocol_config.write_group_size,
                epoch_bits=protocol_config.epoch_bits,
            )
        else:
            self.ts_source = None
        table_capacity = protocol_config.ts_table_entries or num_cores
        self.ts_l1 = TimestampTable(capacity=table_capacity)
        self.ts_l2 = TimestampTable(capacity=num_l2_tiles)
        self.epochs_l1 = EpochTable()
        self.epochs_l2 = EpochTable()

    # ------------------------------------------------------------------ core ops

    def issue_load(self, address: int, callback: Callable[[int], None]) -> None:
        """Perform a word load (bounded Shared hits, see module docstring)."""
        queue = self._waiting.get(address & self._line_mask)
        if queue is not None:
            queue.append(lambda: self.issue_load(address, callback))
            return
        start = self.sim.now
        line = self.cache.get_line(address)
        if line is not None and isinstance(line.state, TSOCCL1State):
            state = line.state
            if state.is_private or state is TSOCCL1State.SHARED_RO:
                self.stats.read_hits[state.category] += 1
                self._complete_load(
                    callback, line.data.get(address & self._offset_mask, 0), start)
                return
            # Shared: hits are bounded by the access counter (b.acnt).
            if line.acnt < self._max_shared_hits:
                line.acnt += 1
                self.stats.read_hits["shared"] += 1
                self._complete_load(
                    callback, line.data.get(address & self._offset_mask, 0), start)
                return
            self.stats.record_miss("read", "shared")
        else:
            self.stats.record_miss("read", "invalid")
        txn = PendingTransaction(
            kind="load",
            line_address=self.address_map.line_address(address),
            address=address,
            callback=callback,
            start_time=start,
        )
        self.start_transaction(txn)
        self.send(MessageType.GETS, self.home_node(address),
                  address=txn.line_address, requester=self.core_id)

    def issue_store(self, address: int, value: int, callback: Callable[[], None]) -> None:
        """Perform a word store (called from the core's write-buffer drain)."""
        queue = self._waiting.get(address & self._line_mask)
        if queue is not None:
            queue.append(lambda: self.issue_store(address, value, callback))
            return
        start = self.sim.now
        line = self.cache.get_line(address)
        if line is not None and isinstance(line.state, TSOCCL1State) and line.state.is_private:
            line.data[address & self._offset_mask] = value
            line.dirty = True
            line.state = TSOCCL1State.MODIFIED
            self._record_write(line)
            self.stats.write_hits["private"] += 1
            self._complete_store(callback, start)
            return
        category = self._miss_category(line)
        self.stats.record_miss("write", category)
        txn = PendingTransaction(
            kind="store",
            line_address=self.address_map.line_address(address),
            address=address,
            value=value,
            callback=callback,
            start_time=start,
        )
        self.start_transaction(txn)
        self.send(MessageType.GETX, self.home_node(address),
                  address=txn.line_address, requester=self.core_id)

    def issue_rmw(
        self, address: int, modify: Callable[[int], int], callback: Callable[[int], None]
    ) -> None:
        """Perform an atomic read-modify-write (issues GetX like a write)."""
        queue = self._waiting.get(address & self._line_mask)
        if queue is not None:
            queue.append(lambda: self.issue_rmw(address, modify, callback))
            return
        start = self.sim.now
        line = self.cache.get_line(address)
        if line is not None and isinstance(line.state, TSOCCL1State) and line.state.is_private:
            data = line.data
            offset = address & self._offset_mask
            old = data.get(offset, 0)
            data[offset] = modify(old)
            line.dirty = True
            line.state = TSOCCL1State.MODIFIED
            self._record_write(line)
            self.stats.write_hits["private"] += 1
            self._complete_rmw(callback, old, start)
            return
        category = self._miss_category(line)
        self.stats.record_miss("write", category)
        txn = PendingTransaction(
            kind="rmw",
            line_address=self.address_map.line_address(address),
            address=address,
            modify=modify,
            callback=callback,
            start_time=start,
        )
        self.start_transaction(txn)
        self.send(MessageType.GETX, self.home_node(address),
                  address=txn.line_address, requester=self.core_id)

    def issue_fence(self, callback: Callable[[], None]) -> None:
        """Fences self-invalidate all Shared lines (§3.6)."""
        self.stats.fences += 1
        self._self_invalidate("fence", from_response=False)
        self.complete_with_latency(callback, latency=1)

    def _miss_category(self, line: Optional[CacheLine]) -> str:
        if line is None or not isinstance(line.state, TSOCCL1State):
            return "invalid"
        return line.state.category

    # ------------------------------------------------------------------ write timestamping

    def on_line_written(self, line: CacheLine) -> None:
        """Transaction retirement hook: stamp the freshly written line."""
        self._record_write(line)

    def _record_write(self, line: CacheLine) -> None:
        """Stamp ``line`` with this core's current timestamp (§3.3) and
        broadcast a timestamp reset if the counter overflowed (§3.5)."""
        line.last_writer = self.core_id
        if self.ts_source is None:
            return
        ts, reset_required = self.ts_source.timestamp_for_write()
        line.ts = ts
        line.ts_epoch = self.ts_source.epoch
        if reset_required:
            self._broadcast_timestamp_reset()

    def _broadcast_timestamp_reset(self) -> None:
        assert self.ts_source is not None
        new_epoch = self.ts_source.reset()
        self.stats.ts_resets += 1
        template = Message(
            mtype=MessageType.TS_RESET,
            src=self.node_id,
            dst=self.node_id,
            address=None,
            info={"source": self.core_id, "source_kind": "l1", "epoch": new_epoch},
        )
        self.network.broadcast(template, self.l1_nodes + self.topology.l2_nodes,
                               exclude=self.node_id)

    # ------------------------------------------------------------------ self-invalidation

    def _self_invalidate(self, cause: str, from_response: bool) -> None:
        """Invalidate every line in the Shared state (SharedRO, Exclusive and
        Modified lines are never self-invalidated)."""
        cache = self.cache
        victims = [line for line in cache.lines()
                   if line.state is TSOCCL1State.SHARED]
        for line in victims:
            cache.remove(line.address)
        self.stats.record_self_invalidation(cause, len(victims), from_response)

    def _self_invalidation_decision(self, msg: Message) -> Optional[str]:
        """Decide whether a data response is a *potential acquire* requiring
        self-invalidation; returns the cause string or ``None``.

        Implements the rules of §3.2 (basic: any response whose last writer is
        another core), §3.3 (timestamps: only if the response's timestamp is
        newer than the last-seen timestamp of its writer; missing/invalid
        timestamps are conservative), §3.4 (SharedRO data compared against
        the per-L2-tile timestamp) and §3.5 (epoch mismatches behave like a
        just-received timestamp reset).
        """
        writer = msg.info.get("writer")
        ts = msg.info.get("ts")
        epoch = msg.info.get("epoch", 0)

        if msg.mtype is MessageType.DATA_SRO:
            if not (self.config.use_timestamps and self.config.sro_uses_l2_timestamps):
                return "acquire_sro"
            tile = msg.info.get("tile")
            if ts is None or tile is None:
                return "invalid_ts"
            if not self.epochs_l2.matches(tile, epoch):
                self.epochs_l2.update(tile, epoch)
                self.ts_l2.invalidate(tile)
            last_seen = self.ts_l2.get(tile)
            if last_seen is None or ts > last_seen:
                return "acquire_sro"
            return None

        if writer is not None and writer == self.core_id:
            # b.owner is the requester: the last write is our own.
            return None
        if not self.config.use_timestamps:
            return "invalid_ts"
        if ts is None or writer is None:
            return "invalid_ts"
        if not self.epochs_l1.matches(writer, epoch):
            self.epochs_l1.update(writer, epoch)
            self.ts_l1.invalidate(writer)
        last_seen = self.ts_l1.get(writer)
        if last_seen is None:
            return "acquire"
        if self._write_grouped:
            newer = ts >= last_seen
        else:
            newer = ts > last_seen
        return "acquire" if newer else None

    def _update_timestamp_tables(self, msg: Message) -> None:
        """Record the timestamp carried by a data response as last-seen."""
        if not self.config.use_timestamps:
            return
        ts = msg.info.get("ts")
        epoch = msg.info.get("epoch", 0)
        if ts is None:
            return
        if msg.mtype is MessageType.DATA_SRO:
            tile = msg.info.get("tile")
            if tile is None:
                return
            self.epochs_l2.update(tile, epoch)
            self.ts_l2.update(tile, ts)
            return
        writer = msg.info.get("writer")
        if writer is None or writer == self.core_id:
            return
        self.epochs_l1.update(writer, epoch)
        self.ts_l1.update(writer, ts)

    # ------------------------------------------------------------------ messages

    # handle_message comes from BaseL1Controller, driven by message_handlers.

    # -- data responses ---------------------------------------------------------

    def _on_data(self, msg: Message) -> None:
        assert msg.address is not None
        txn = self.response_txn(msg)
        self.stats.data_responses += 1
        cause = self._self_invalidation_decision(msg)
        if cause is not None:
            self._self_invalidate(cause, from_response=True)
        self._update_timestamp_tables(msg)

        if msg.mtype is MessageType.DATA_E:
            state = TSOCCL1State.EXCLUSIVE
        elif msg.mtype is MessageType.DATA_S:
            state = TSOCCL1State.SHARED
        elif msg.mtype is MessageType.DATA_SRO:
            state = TSOCCL1State.SHARED_RO
        else:  # DATA_X / DATA_OWNER: exclusive permission for a write or RMW
            state = TSOCCL1State.MODIFIED if txn.kind != "load" else TSOCCL1State.EXCLUSIVE

        line = self.install_line(msg.address, msg.data or {}, state)
        line.acnt = 0
        line.ts = msg.info.get("ts")
        line.ts_epoch = msg.info.get("epoch")
        line.last_writer = msg.info.get("writer")

        # Exclusive grants from the L2 must be acknowledged so the home tile
        # can leave its transient state (write serialization, §3.2).
        if msg.mtype in (MessageType.DATA_E, MessageType.DATA_X) and self.topology.is_l2_node(msg.src):
            self.send(MessageType.L1_ACK, msg.src, address=msg.address,
                      acker=self.core_id)
        self.finish_txn_with_line(txn, line)
        if txn.inv_raced and state in (TSOCCL1State.SHARED,
                                       TSOCCL1State.SHARED_RO):
            # A (SharedRO) broadcast invalidation overtook this data response:
            # keeping the copy could leave a read-only line stale forever, so
            # use the data once and drop it.
            self.cache.remove(msg.address)

    # -- forwarded requests -------------------------------------------------------

    def _line_for_forward(self, msg: Message) -> Optional[CacheLine]:
        """Return the line a forwarded request refers to, deferring the
        forward if the authoritative copy is still in flight towards us.

        A forwarded request means the home tile believes this core is the
        *exclusive owner*, so only an Exclusive/Modified resident copy (or a
        copy held in the writeback buffer) may serve it.  A resident Shared
        copy is stale — the exclusive data is still travelling to us from
        the previous owner — so the forward must wait for the pending
        transaction that will install it.
        """
        assert msg.address is not None
        line = self.cache.get_line(msg.address)
        if line is not None and isinstance(line.state, TSOCCL1State) and line.state.is_private:
            return line
        evicting = self.evicting_line(msg.address)
        if evicting is not None:
            return evicting
        txn = self._pending.get(msg.address)
        if txn is not None:
            msg.retain()  # the replay closure outlives this delivery
            txn.deferred.append(lambda: self.handle_message(msg))
            return None
        if line is not None:
            # Shared copy with no pending transaction: the ownership was
            # granted and lost again without the L2 noticing — this is a
            # protocol invariant violation worth failing loudly on.
            raise RuntimeError(
                f"TSO-CC L1[{self.core_id}]: forwarded request for line "
                f"{msg.address:#x} found only a {line.state} copy"
            )
        raise RuntimeError(
            f"TSO-CC L1[{self.core_id}]: forwarded request for line "
            f"{msg.address:#x} which is neither cached, evicting nor pending"
        )

    def _on_fwd_gets(self, msg: Message) -> None:
        """A remote core read a line we own: downgrade to Shared, forward the
        data to the requester and acknowledge the home tile."""
        assert msg.address is not None
        line = self._line_for_forward(msg)
        if line is None:
            return
        requester = msg.info["requester"]
        data = line.copy_data()
        dirty = line.dirty
        ts, epoch, writer = line.ts, line.ts_epoch, line.last_writer
        resident = self.cache.get_line(msg.address)
        if resident is line:
            line.state = TSOCCL1State.SHARED
            line.acnt = 0
            line.dirty = False
        self.send(MessageType.DATA_S, self.l1_nodes[requester],
                  address=msg.address, data=data, writer=writer, ts=ts,
                  epoch=epoch if epoch is not None else 0)
        self.send(MessageType.DOWNGRADE_ACK, msg.src, address=msg.address,
                  data=data, dirty=dirty, owner=self.core_id, writer=writer,
                  ts=ts, epoch=epoch if epoch is not None else 0,
                  requester=requester)

    def _on_fwd_getx(self, msg: Message) -> None:
        """A remote core is writing a line we own: pass ownership (§3.2)."""
        assert msg.address is not None
        line = self._line_for_forward(msg)
        if line is None:
            return
        requester = msg.info["requester"]
        data = line.copy_data()
        dirty = line.dirty
        ts, epoch, writer = line.ts, line.ts_epoch, line.last_writer
        if self.cache.get_line(msg.address) is not None:
            self.cache.remove(msg.address)
        self.stats.invalidations_received += 1
        self.send(MessageType.DATA_OWNER, self.l1_nodes[requester],
                  address=msg.address, data=data, writer=writer, ts=ts,
                  epoch=epoch if epoch is not None else 0)
        self.send(MessageType.TRANSFER_ACK, msg.src, address=msg.address,
                  new_owner=requester, old_owner=self.core_id, dirty=dirty,
                  ts=ts, epoch=epoch if epoch is not None else 0)

    def _on_recall(self, msg: Message) -> None:
        """The L2 is evicting an Exclusive line we own: write it back."""
        assert msg.address is not None
        line = self.cache.get_line(msg.address) or self.evicting_line(msg.address)
        data = line.copy_data() if line is not None else {}
        dirty = bool(line is not None and line.dirty)
        ts = line.ts if line is not None else None
        epoch = line.ts_epoch if line is not None else 0
        if self.cache.get_line(msg.address) is not None:
            self.cache.remove(msg.address)
        self.stats.invalidations_received += 1
        self.send(MessageType.WB_DATA, msg.src, address=msg.address,
                  data=data, dirty=dirty, owner=self.core_id, ts=ts,
                  epoch=epoch if epoch is not None else 0)

    def _on_put_ack(self, msg: Message) -> None:
        assert msg.address is not None
        self.release_evicting(msg.address)

    def _on_ts_reset(self, msg: Message) -> None:
        """A node reset its timestamp source: forget its last-seen timestamp
        and adopt its new epoch-id (§3.5)."""
        source = msg.info["source"]
        epoch = msg.info["epoch"]
        if msg.info.get("source_kind") == "l2":
            self.ts_l2.invalidate(source)
            self.epochs_l2.update(source, epoch)
        else:
            self.ts_l1.invalidate(source)
            self.epochs_l1.update(source, epoch)

    # ------------------------------------------------------------------ evictions

    def put_info(self, victim: CacheLine, dirty: bool) -> Dict[str, Any]:
        """Attach the line's timestamp metadata to the Put message so the
        home tile can keep its last-seen timestamp table current."""
        return {
            "owner": self.core_id,
            "dirty": victim.dirty,
            "ts": victim.ts,
            "epoch": victim.ts_epoch if victim.ts_epoch is not None else 0,
            "writer": victim.last_writer,
        }

    def _evict(self, victim: CacheLine) -> None:
        if not isinstance(victim.state, TSOCCL1State):
            return
        self.stats.evictions[victim.state.category] += 1
        if victim.state in (TSOCCL1State.SHARED, TSOCCL1State.SHARED_RO):
            # Shared and SharedRO lines are untracked: silent eviction.
            return
        self.writeback_victim(victim)
