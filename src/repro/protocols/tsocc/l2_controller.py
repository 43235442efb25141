"""TSO-CC shared-cache (L2) tile controller.

Implements the L2 side of §3 of the paper.  The key difference from a MESI
directory is that **Shared lines are untracked**: the tile keeps, per line,
only the ``b.owner`` pointer (owner of Exclusive lines / last writer of
Shared lines / coarse sharer groups of SharedRO lines) and a timestamp — no
sharing vector — and therefore never sends invalidations on ordinary writes:

* a ``GetX`` to a Shared line is answered immediately (the stale copies in
  other L1s are tolerated; they will be self-invalidated or re-requested),
* a ``GetX`` to an Exclusive line transfers ownership through the current
  owner,
* only writes to SharedRO lines (rare by construction) broadcast
  invalidations to the coarse sharer groups.

The tile also implements the Shared→SharedRO decay, L2-sourced SharedRO
timestamps, the last-seen timestamp table used both for decay and for
clamping timestamps from previous epochs (§3.5), and non-inclusive handling
of evictions (Shared lines are dropped silently; SharedRO lines broadcast
invalidations so stale read-only copies cannot linger unreachable; Exclusive
lines are recalled from their owner).

Only the TSO-CC state machine lives here; the request blocking, line
allocation, Put/recall collection and memory plumbing comes from
:class:`~repro.protocols.base.BaseL2Controller`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.interconnect.message import Message, MessageType
from repro.memsys.cacheline import CacheLine
from repro.protocols.base import BaseL2Controller
from repro.protocols.tsocc.config import TSOCCConfig
from repro.protocols.tsocc.states import TSOCCL2State
from repro.protocols.tsocc.timestamps import (
    SMALLEST_VALID_TIMESTAMP,
    EpochTable,
    TimestampSource,
    TimestampTable,
)


class TSOCCL2Controller(BaseL2Controller):
    """Shared-cache tile controller implementing the TSO-CC protocol."""

    protocol_label = "TSO-CC"
    exclusive_state = TSOCCL2State.EXCLUSIVE
    idle_state = TSOCCL2State.UNCACHED
    message_handlers = {
        MessageType.GETS: "_on_gets",
        MessageType.GETX: "_on_getx",
        MessageType.L1_ACK: "_on_l1_ack",
        MessageType.DOWNGRADE_ACK: "_on_downgrade_ack",
        MessageType.TRANSFER_ACK: "_on_transfer_ack",
        MessageType.INV_ACK: "_on_inv_ack",
        MessageType.PUTE: "_on_pute",
        MessageType.PUTM: "_on_putm",
        MessageType.WB_DATA: "handle_wb_data",
        MessageType.TS_RESET: "_on_ts_reset",
    }
    blocking_types = frozenset({
        MessageType.GETS, MessageType.GETX,
        MessageType.PUTE, MessageType.PUTM,
    })

    def __init__(
        self,
        *args,
        protocol_config: TSOCCConfig,
        num_cores: int,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.config = protocol_config
        # Derived config value read on every GetS to a Shared line.
        self._decay_delta = protocol_config.decay_timestamp_delta
        self.num_cores = num_cores
        if (
            protocol_config.use_shared_ro
            and protocol_config.sro_uses_l2_timestamps
            and protocol_config.use_timestamps
        ):
            self.l2_ts_source: Optional[TimestampSource] = TimestampSource(
                bits=protocol_config.ts_bits,
                write_group_size=1,
                epoch_bits=protocol_config.epoch_bits,
            )
        else:
            self.l2_ts_source = None
        self.ts_l1_last_seen = TimestampTable(capacity=num_cores)
        self.epochs_l1 = EpochTable()
        # Coarse sharer groups: the b.owner field (log2(cores) bits) is
        # reused as a bit-per-group vector for SharedRO lines (§3.4).
        self.num_sharer_groups = max(1, num_cores.bit_length() - 1) if num_cores > 1 else 1
        # line address -> in-progress transaction bookkeeping
        self._txn: Dict[int, Dict] = {}

    # ------------------------------------------------------------------ helpers

    def group_of(self, core_id: int) -> int:
        """Coarse sharer group of ``core_id``."""
        return core_id * self.num_sharer_groups // self.num_cores

    def cores_in_groups(self, groups: set) -> List[int]:
        """All core ids belonging to any group in ``groups``."""
        return [core for core in range(self.num_cores) if self.group_of(core) in groups]

    def _response_ts(self, line: CacheLine) -> Dict:
        """Timestamp fields for a non-SharedRO data response.

        Applies the §3.5 clamping rule: if the line's timestamp is newer than
        the last timestamp seen from its writer (i.e. it stems from a
        previous epoch of that writer), respond with the smallest valid
        timestamp instead.
        """
        writer = line.last_writer
        if not self.config.use_timestamps or line.ts is None or writer is None:
            return {"ts": None, "epoch": 0, "writer": writer}
        epoch = self.epochs_l1.expected(writer)
        last_seen = self.ts_l1_last_seen.get(writer)
        if last_seen is None or last_seen < line.ts:
            return {"ts": SMALLEST_VALID_TIMESTAMP, "epoch": epoch, "writer": writer}
        return {"ts": line.ts, "epoch": epoch, "writer": writer}

    def _sro_response_ts(self, line: CacheLine) -> Dict:
        """Timestamp fields for a SharedRO data response (L2-sourced)."""
        if self.l2_ts_source is None or line.ts is None:
            return {"ts": None, "epoch": 0, "tile": self.tile_id}
        ts = line.ts
        if ts > self.l2_ts_source.current:
            # Timestamp from a previous epoch of this tile: clamp.
            ts = SMALLEST_VALID_TIMESTAMP
        return {"ts": ts, "epoch": self.l2_ts_source.epoch, "tile": self.tile_id}

    def _record_writer_timestamp(self, core_id: Optional[int], ts: Optional[int],
                                 epoch: int) -> None:
        """Update the per-L1 last-seen timestamp table (used for decay and
        for the epoch-clamping rule)."""
        if core_id is None or ts is None or not self.config.use_timestamps:
            return
        if not self.epochs_l1.matches(core_id, epoch):
            self.epochs_l1.update(core_id, epoch)
            self.ts_l1_last_seen.invalidate(core_id)
        self.ts_l1_last_seen.update(core_id, ts)

    # ------------------------------------------------------------------ dispatch

    # handle_message comes from BaseL2Controller, driven by message_handlers
    # and blocking_types (writebacks defer while their line is blocked:
    # acknowledging a put while a forwarded request to the same owner is
    # still in flight would let the owner drop its copy before serving the
    # forward — §3.2's requirement that the L2 only acts on stable lines).

    # ------------------------------------------------------------------ reads

    def _on_gets(self, msg: Message) -> None:
        assert msg.address is not None
        self.stats.requests["GetS"] += 1
        requester = msg.info["requester"]
        line = self.cache.get_line(msg.address)
        if line is None:
            self._fetch_and_grant(msg)
            return
        if line.state is TSOCCL2State.UNCACHED:
            self._grant_exclusive(line, requester, MessageType.DATA_E)
            return
        if line.state is TSOCCL2State.EXCLUSIVE:
            if line.owner == requester:
                self._grant_exclusive(line, requester, MessageType.DATA_E)
                return
            self.stats.forwarded_requests += 1
            self.block(line.address)
            self._txn[line.address] = {"type": "fwd_gets", "requester": requester}
            self.send(MessageType.FWD_GETS, self.l1_nodes[line.owner],
                      address=line.address, requester=requester)
            return
        if line.state is TSOCCL2State.SHARED and self._should_decay(line):
            self._transition_to_sro(line, decayed=True)
        if line.state is TSOCCL2State.SHARED:
            fields = self._response_ts(line)
            self.send(MessageType.DATA_S, self.l1_nodes[requester],
                      address=line.address, data=line.copy_data(),
                      delay=self.access_latency, **fields)
            return
        # SHARED_RO
        line.sharers.add(self.group_of(requester))
        fields = self._sro_response_ts(line)
        self.send(MessageType.DATA_SRO, self.l1_nodes[requester],
                  address=line.address, data=line.copy_data(),
                  delay=self.access_latency, **fields)

    # ------------------------------------------------------------------ writes

    def _on_getx(self, msg: Message) -> None:
        assert msg.address is not None
        self.stats.requests["GetX"] += 1
        requester = msg.info["requester"]
        line = self.cache.get_line(msg.address)
        if line is None:
            self._fetch_and_grant(msg)
            return
        if line.state in (TSOCCL2State.UNCACHED, TSOCCL2State.SHARED):
            # The hallmark of TSO-CC: writes to Shared lines are granted
            # immediately, with no invalidation fan-out; the stale copies in
            # other L1s are bounded by access counters / self-invalidation.
            self._grant_exclusive(line, requester, MessageType.DATA_X)
            return
        if line.state is TSOCCL2State.EXCLUSIVE:
            if line.owner == requester:
                self._grant_exclusive(line, requester, MessageType.DATA_X)
                return
            self.stats.forwarded_requests += 1
            self.block(line.address)
            self._txn[line.address] = {"type": "fwd_getx", "requester": requester}
            self.send(MessageType.FWD_GETX, self.l1_nodes[line.owner],
                      address=line.address, requester=requester)
            return
        # SHARED_RO: rare writes require eager broadcast invalidation of the
        # coarse sharer groups (§3.4).
        targets = [core for core in self.cores_in_groups(line.sharers)
                   if core != requester]
        if not targets:
            self._grant_exclusive(line, requester, MessageType.DATA_X)
            return
        self.stats.sro_invalidation_broadcasts += 1
        self.block(line.address)
        self._txn[line.address] = {
            "type": "sro_inv",
            "requester": requester,
            "pending": len(targets),
        }
        for core in targets:
            self.send(MessageType.INV, self.l1_nodes[core], address=line.address,
                      requester=requester, sro=True)

    def _grant_exclusive(self, line: CacheLine, requester: int,
                         dtype: MessageType, already_blocked: bool = False) -> None:
        """Grant exclusive ownership of ``line`` to ``requester`` and block
        the line until the L1 acknowledges receipt (write serialization)."""
        fields = self._response_ts(line)
        line.state = TSOCCL2State.EXCLUSIVE
        line.owner = requester
        line.sharers = set()
        if not already_blocked:
            self.block(line.address)
        self._txn[line.address] = {"type": "await_l1_ack", "requester": requester}
        self.send(dtype, self.l1_nodes[requester], address=line.address,
                  data=line.copy_data(), delay=self.access_latency, **fields)

    def _on_l1_ack(self, msg: Message) -> None:
        assert msg.address is not None
        txn = self._txn.get(msg.address)
        if txn is not None and txn["type"] == "await_l1_ack":
            self._txn.pop(msg.address, None)
            self.unblock(msg.address)

    # ------------------------------------------------------------------ owner responses

    def _on_downgrade_ack(self, msg: Message) -> None:
        """The previous owner downgraded on a remote read (FwdGetS)."""
        assert msg.address is not None
        txn = self._txn.pop(msg.address, None)
        line = self.cache.get_line(msg.address)
        if line is not None and txn is not None:
            owner = msg.info["owner"]
            dirty = bool(msg.info.get("dirty"))
            if msg.data is not None:
                line.merge_data(msg.data)
            if dirty:
                line.dirty = True
                line.ts = msg.info.get("ts")
                line.ts_epoch = msg.info.get("epoch", 0)
                line.last_writer = owner
                self._record_writer_timestamp(owner, msg.info.get("ts"),
                                              msg.info.get("epoch", 0))
            if not dirty and self.config.use_shared_ro:
                # Not modified by the previous exclusive owner: SharedRO
                # instead of Shared (§3.4), which also avoids Shared lines
                # with invalid timestamps.
                self._transition_to_sro(line, decayed=False)
                line.sharers.add(self.group_of(owner))
                line.sharers.add(self.group_of(txn["requester"]))
            else:
                line.state = TSOCCL2State.SHARED
                line.owner = line.last_writer
        self.unblock(msg.address)

    def _on_transfer_ack(self, msg: Message) -> None:
        """The previous owner passed ownership on a remote write (FwdGetX)."""
        assert msg.address is not None
        txn = self._txn.pop(msg.address, None)
        line = self.cache.get_line(msg.address)
        if line is not None and txn is not None:
            old_owner = msg.info["old_owner"]
            if msg.info.get("dirty"):
                self._record_writer_timestamp(old_owner, msg.info.get("ts"),
                                              msg.info.get("epoch", 0))
            line.state = TSOCCL2State.EXCLUSIVE
            line.owner = txn["requester"]
            line.sharers = set()
        self.unblock(msg.address)

    def _on_inv_ack(self, msg: Message) -> None:
        assert msg.address is not None
        if self.recall_in_progress(msg.address):
            self.advance_recall(msg.address)
            return
        txn = self._txn.get(msg.address)
        if txn is None or txn["type"] != "sro_inv":
            return
        txn["pending"] -= 1
        if txn["pending"] > 0:
            return
        self._txn.pop(msg.address, None)
        line = self.cache.get_line(msg.address)
        if line is not None:
            self._grant_exclusive(line, txn["requester"], MessageType.DATA_X,
                                  already_blocked=True)
        else:
            self.unblock(msg.address)

    # ------------------------------------------------------------------ L1 evictions

    def _on_pute(self, msg: Message) -> None:
        assert msg.address is not None
        self.stats.requests["PutE"] += 1
        self.handle_put(msg, dirty=False)

    def _on_putm(self, msg: Message) -> None:
        assert msg.address is not None
        self.stats.requests["PutM"] += 1
        self.handle_put(msg, dirty=True)

    def on_put_writeback(self, line: CacheLine, msg: Message) -> None:
        """A dirty Put carries the owner's latest write: record the line's
        timestamp metadata and the writer's last-seen timestamp."""
        owner = msg.info["owner"]
        line.ts = msg.info.get("ts")
        line.ts_epoch = msg.info.get("epoch", 0)
        line.last_writer = owner
        self._record_writer_timestamp(owner, msg.info.get("ts"),
                                      msg.info.get("epoch", 0))

    # ------------------------------------------------------------------ decay / SharedRO

    def _should_decay(self, line: CacheLine) -> bool:
        """Shared lines that have not been written for ``decay_writes`` writes
        (as reflected by the writer's timestamps) decay to SharedRO (§3.4)."""
        threshold = self._decay_delta
        if threshold is None or not self.config.use_shared_ro:
            return False
        if line.ts is None or line.last_writer is None:
            return False
        last_seen = self.ts_l1_last_seen.get(line.last_writer)
        if last_seen is None:
            return False
        return (last_seen - line.ts) >= threshold

    def _transition_to_sro(self, line: CacheLine, decayed: bool) -> None:
        """Transition ``line`` to SharedRO and assign an L2-sourced timestamp."""
        self.stats.sro_transitions += 1
        if decayed:
            self.stats.shared_decays += 1
        line.state = TSOCCL2State.SHARED_RO
        line.owner = None
        line.sharers = set()
        if self.l2_ts_source is not None:
            new_ts, reset_required = self.l2_ts_source.advance()
            if reset_required:
                self._broadcast_l2_timestamp_reset()
                new_ts = self.l2_ts_source.current
            line.ts = new_ts
            line.ts_epoch = self.l2_ts_source.epoch
        else:
            line.ts = None
            line.ts_epoch = None

    def _broadcast_l2_timestamp_reset(self) -> None:
        assert self.l2_ts_source is not None
        new_epoch = self.l2_ts_source.reset()
        self.stats.ts_resets += 1
        template = Message(
            mtype=MessageType.TS_RESET,
            src=self.node_id,
            dst=self.node_id,
            address=None,
            info={"source": self.tile_id, "source_kind": "l2", "epoch": new_epoch},
        )
        self.network.broadcast(template, self.l1_nodes)

    def _on_ts_reset(self, msg: Message) -> None:
        """A core reset its timestamp source: forget its last-seen timestamp."""
        source = msg.info["source"]
        epoch = msg.info["epoch"]
        self.ts_l1_last_seen.invalidate(source)
        self.epochs_l1.update(source, epoch)

    # ------------------------------------------------------------------ allocation / memory / eviction

    def _fetch_and_grant(self, request: Message) -> None:
        """Allocate a line, fetch it from memory and grant it exclusively to
        the requester (reads to invalid L2 lines also get Exclusive, §3.2)."""
        assert request.address is not None
        line_addr = self.address_map.line_address(request.address)
        placed = self.allocate_line(line_addr)
        if placed is None:
            request.retain()  # the retry closure outlives this delivery
            self.after(self.access_latency, lambda: self.handle_message(request))
            return
        self.block(line_addr)
        requester = request.info["requester"]
        dtype = (MessageType.DATA_E if request.mtype is MessageType.GETS
                 else MessageType.DATA_X)

        def on_data(data: Dict[int, int]) -> None:
            placed.merge_data(data)
            placed.dirty = False
            placed.ts = None
            placed.ts_epoch = None
            placed.last_writer = None
            self._grant_exclusive(placed, requester, dtype, already_blocked=True)

        self.fetch_from_memory(line_addr, on_data)

    def _evict_victim(self, victim: CacheLine) -> None:
        self.record_l2_eviction(victim)
        if victim.state in (TSOCCL2State.UNCACHED, TSOCCL2State.SHARED, None):
            # Shared lines are untracked and non-inclusive: drop silently.
            # Timestamps are not propagated to memory, which later forces the
            # mandatory self-invalidation on re-fetch (§3.3).
            if victim.dirty:
                self.writeback_to_memory(victim.address, victim.copy_data())
            return
        if victim.state is TSOCCL2State.SHARED_RO:
            # Stale read-only copies would otherwise linger unreachable (they
            # are never self-invalidated), so broadcast invalidations to the
            # coarse sharer groups before dropping the line.
            targets = self.cores_in_groups(victim.sharers)
            if victim.dirty:
                self.writeback_to_memory(victim.address, victim.copy_data())
            if not targets:
                return
            self.begin_recall(victim, pending=len(targets), dirty=False)
            for core in targets:
                self.send(MessageType.INV, self.l1_nodes[core],
                          address=victim.address, recall=True, sro=True)
            return
        # EXCLUSIVE: recall the line from its owner.
        self.begin_recall(victim, pending=1)
        self.send(MessageType.RECALL, self.l1_nodes[victim.owner],
                  address=victim.address)

    def on_recalled_wb_data(self, msg: Message) -> None:
        """Recalled writeback data carries the owner's timestamp metadata."""
        self._record_writer_timestamp(msg.info.get("owner"), msg.info.get("ts"),
                                      msg.info.get("epoch", 0))
