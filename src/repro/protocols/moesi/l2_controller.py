"""MOESI shared-cache (L2) tile controller.

Extends the MESI directory with the ``OWNED`` state: a dirty L1 owner plus
a sharer set, with the L2's own copy of the data stale.  The consequences,
each handled here on top of the inherited MESI machinery:

* **reads** of an Owned line forward to the owner (the L2 cannot serve its
  stale copy); the owner's ``owned`` acknowledgement keeps it the owner and
  simply grows the sharer set,
* **writes** to an Owned line run in two phases so invalidation stays eager
  (TSO requires every stale copy dead before the write performs): first
  invalidate the sharers and collect their acks, then hand ownership over
  through the ordinary MESI ``FwdGetX`` path (or, when the writer *is* the
  owner, grant the upgrade directly),
* **Put/PutS** from the owner or a sharer of an Owned line retire the right
  tracking entry, and
* **evicting** an Owned victim recalls the owner's dirty data and
  invalidates every sharer before the line leaves the tile (inclusivity).
"""

from __future__ import annotations

from repro.interconnect.message import Message, MessageType
from repro.memsys.cacheline import CacheLine
from repro.protocols.mesi.l2_controller import MESIL2Controller
from repro.protocols.moesi.states import MOESIDirState


class MOESIL2Controller(MESIL2Controller):
    """Directory / shared-cache controller for one L2 tile (MOESI)."""

    protocol_label = "MOESI"
    idle_state = MOESIDirState.VALID
    shared_state = MOESIDirState.SHARED
    exclusive_state = MOESIDirState.EXCLUSIVE
    owned_state = MOESIDirState.OWNED

    # ------------------------------------------------------------------ reads

    def _on_gets(self, msg: Message) -> None:
        assert msg.address is not None
        line = self.cache.get_line(msg.address)
        if line is None or line.state is not self.owned_state:
            super()._on_gets(msg)
            return
        self.stats.requests["GetS"] += 1
        requester = msg.info["requester"]
        if requester == line.owner:
            # Defensive mirror of the MESI stale-owner path: forwarding to
            # the requester itself would deadlock, so re-grant a Shared copy
            # from the L2's data.
            line.sharers.add(requester)
            self.send(MessageType.DATA_S, self.l1_nodes[requester],
                      address=line.address, data=line.copy_data(),
                      delay=self.access_latency)
            return
        self.stats.forwarded_requests += 1
        self.block(line.address)
        self._dir_txn[line.address] = {"type": "gets_fwd", "requester": requester}
        self.send(MessageType.FWD_GETS, self.l1_nodes[line.owner],
                  address=line.address, requester=requester)

    def _on_downgrade_ack(self, msg: Message) -> None:
        """Fold the owner's answer into the directory.  ``owned`` acks keep
        the owner (dirty sharing) and add the requester to the sharer set;
        clean downgrades behave like MESI except that any pre-existing
        sharers of an Owned line are preserved, not overwritten."""
        assert msg.address is not None
        line = self.cache.get_line(msg.address)
        txn = self._dir_txn.pop(msg.address, None)
        if line is not None and txn is not None:
            if msg.info.get("owned"):
                line.state = self.owned_state
                line.owner = msg.info["owner"]
                line.sharers.add(txn["requester"])
            else:
                if msg.info.get("dirty") and msg.data is not None:
                    line.merge_data(msg.data)
                    line.dirty = True
                line.state = self.shared_state
                line.sharers = set(line.sharers) | {msg.info["owner"],
                                                    txn["requester"]}
                line.owner = None
        self.unblock(msg.address)

    # ------------------------------------------------------------------ writes

    def _on_getx(self, msg: Message) -> None:
        assert msg.address is not None
        line = self.cache.get_line(msg.address)
        if line is None or line.state is not self.owned_state:
            super()._on_getx(msg)
            return
        self.stats.requests["GetX"] += 1
        requester = msg.info["requester"]
        others = {sharer for sharer in line.sharers if sharer != requester}
        if requester == line.owner:
            # Upgrade by the owner: invalidate the sharers, then grant.
            if not others:
                line.state = self.exclusive_state
                line.sharers = set()
                self.send(MessageType.ACK, self.l1_nodes[requester],
                          address=line.address, grant=True,
                          data=line.copy_data(),
                          delay=self.access_latency)
                return
            self.block(line.address)
            self._dir_txn[line.address] = {
                "type": "getx_inv",
                "requester": requester,
                "pending_acks": len(others),
                "was_sharer": True,
            }
            for sharer in others:
                self.send(MessageType.INV, self.l1_nodes[sharer],
                          address=line.address, requester=requester)
            return
        # Another core writes an Owned line: phase 1 invalidates the sharers
        # (eager invalidation must complete before the write can perform),
        # phase 2 hands ownership over via the inherited FwdGetX machinery.
        self.stats.forwarded_requests += 1
        self.block(line.address)
        if not others:
            self._start_owned_handoff(line, requester)
            return
        self._dir_txn[line.address] = {
            "type": "getx_owned_inv",
            "requester": requester,
            "pending_acks": len(others),
        }
        for sharer in others:
            self.send(MessageType.INV, self.l1_nodes[sharer],
                      address=line.address, requester=requester)

    def _start_owned_handoff(self, line: CacheLine, requester: int) -> None:
        """Phase 2 of a write to an Owned line: the line is already blocked
        and the sharers are gone; reuse the MESI ownership-transfer
        transaction (finalized by the inherited ``_on_transfer_ack``)."""
        line.sharers = set()
        self._dir_txn[line.address] = {"type": "getx_fwd", "requester": requester}
        self.send(MessageType.FWD_GETX, self.l1_nodes[line.owner],
                  address=line.address, requester=requester)

    def _on_inv_ack(self, msg: Message) -> None:
        assert msg.address is not None
        txn = self._dir_txn.get(msg.address)
        if txn is not None and txn["type"] == "getx_owned_inv" \
                and not self.recall_in_progress(msg.address):
            txn["pending_acks"] -= 1
            if txn["pending_acks"] == 0:
                line = self.cache.get_line(msg.address)
                assert line is not None  # blocked lines cannot be evicted
                self._start_owned_handoff(line, txn["requester"])
            return
        super()._on_inv_ack(msg)

    # ------------------------------------------------------------------ L1 evictions

    def handle_put(self, msg: Message, dirty: bool) -> None:
        """A Put from the owner of an Owned line absorbs the dirty data and
        demotes the directory entry to Shared (or Valid once no sharers
        remain); everything else is the MESI path."""
        assert msg.address is not None
        line = self.cache.get_line(msg.address)
        owner = msg.info["owner"]
        if (
            line is not None
            and line.state is self.owned_state
            and line.owner == owner
        ):
            if dirty and msg.data is not None:
                line.merge_data(msg.data)
                line.dirty = True
                self.on_put_writeback(line, msg)
            line.owner = None
            line.state = self.shared_state if line.sharers else self.idle_state
            self.send(MessageType.PUT_ACK, msg.src, address=msg.address)
            return
        super().handle_put(msg, dirty)

    def _on_puts(self, msg: Message) -> None:
        assert msg.address is not None
        line = self.cache.get_line(msg.address)
        if line is not None and line.state is self.owned_state:
            self.stats.requests["PutS"] += 1
            line.sharers.discard(msg.info["owner"])
            return
        super()._on_puts(msg)

    # ------------------------------------------------------------------ L2 evictions

    def _evict_victim(self, victim: CacheLine) -> None:
        """Evicting an Owned line recalls the owner's dirty copy *and*
        invalidates every sharer (inclusive L2)."""
        if victim.state is not self.owned_state:
            super()._evict_victim(victim)
            return
        self.record_l2_eviction(victim)
        sharers = set(victim.sharers)
        self.begin_recall(victim, pending=1 + len(sharers))
        self.send(MessageType.RECALL, self.l1_nodes[victim.owner],
                  address=victim.address)
        for sharer in sharers:
            self.send(MessageType.INV, self.l1_nodes[sharer],
                      address=victim.address, recall=True)
