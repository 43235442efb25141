"""MESI shared-cache (L2) tile controller with an embedded full-map directory.

Each tile owns a slice of the inclusive shared L2.  For every resident line
the directory tracks either:

* ``VALID`` — no L1 copies,
* ``SHARED`` — the full set of sharers (the sharing vector whose storage cost
  Figure 2 of the paper quantifies), or
* ``EXCLUSIVE`` — a single owner L1, whose copy may be dirty.

Writes to shared lines trigger invalidation fan-out: the directory sends an
``INV`` to every sharer, collects the acknowledgements and only then grants
write permission — the eager behaviour whose cost TSO-CC avoids.

The read/write grants to untracked lines are factored into
:meth:`MESIL2Controller.grant_read` / :meth:`MESIL2Controller.grant_write`
so derived protocols can change the grant policy without touching the rest
of the state machine — MSI (:mod:`repro.protocols.msi`) overrides
``grant_read`` to hand out Shared instead of Exclusive copies, which is the
entire difference between the two protocols.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.interconnect.message import Message, MessageType
from repro.memsys.cacheline import CacheLine
from repro.protocols.base import BaseL2Controller
from repro.protocols.mesi.states import MESIDirState


class MESIL2Controller(BaseL2Controller):
    """Directory / shared-cache controller for one L2 tile (MESI).

    Directory states are class attributes (``idle_state`` / ``shared_state``
    / ``exclusive_state``) so derived protocols can substitute their own
    enum — MSI reuses the MESI states unchanged, MOESI swaps in a four-state
    enum with an additional Owned member.
    """

    protocol_label = "MESI"
    exclusive_state = MESIDirState.EXCLUSIVE
    idle_state = MESIDirState.VALID
    #: Directory state meaning "one or more tracked L1 sharers".
    shared_state = MESIDirState.SHARED
    message_handlers = {
        MessageType.GETS: "_on_gets",
        MessageType.GETX: "_on_getx",
        MessageType.DOWNGRADE_ACK: "_on_downgrade_ack",
        MessageType.TRANSFER_ACK: "_on_transfer_ack",
        MessageType.INV_ACK: "_on_inv_ack",
        MessageType.PUTS: "_on_puts",
        MessageType.PUTE: "_on_pute",
        MessageType.PUTM: "_on_putm",
        MessageType.WB_DATA: "handle_wb_data",
    }
    blocking_types = frozenset({
        MessageType.GETS, MessageType.GETX,
        MessageType.PUTS, MessageType.PUTE, MessageType.PUTM,
    })

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # line address -> in-progress directory transaction
        self._dir_txn: Dict[int, Dict] = {}

    # ------------------------------------------------------------------ dispatch

    # handle_message comes from BaseL2Controller, driven by message_handlers
    # and blocking_types (writebacks defer while their line is blocked:
    # acknowledging a Put while a forwarded request to its sender is still
    # in flight would let the owner drop the line before serving the
    # forward).

    # ------------------------------------------------------------------ grants

    def grant_read(self, line: CacheLine, requester: int) -> None:
        """Grant a read of a line with no (other) tracked copies.  MESI hands
        out an Exclusive copy so private read-write data avoids a later
        upgrade; MSI overrides this to grant a Shared copy."""
        line.state = self.exclusive_state
        line.owner = requester
        line.sharers = set()
        self.send(MessageType.DATA_E, self.l1_nodes[requester],
                  address=line.address, data=line.copy_data(),
                  delay=self.access_latency)

    def grant_write(self, line: CacheLine, requester: int) -> None:
        """Grant exclusive write ownership of an untracked line."""
        line.state = self.exclusive_state
        line.owner = requester
        line.sharers = set()
        self.send(MessageType.DATA_X, self.l1_nodes[requester],
                  address=line.address, data=line.copy_data(),
                  delay=self.access_latency)

    # ------------------------------------------------------------------ reads

    def _on_gets(self, msg: Message) -> None:
        assert msg.address is not None
        self.stats.requests["GetS"] += 1
        requester = msg.info["requester"]
        line = self.cache.get_line(msg.address)
        if line is None:
            self._fetch_and_then(msg)
            return
        if line.state is self.idle_state:
            self.grant_read(line, requester)
            return
        if line.state is self.shared_state:
            line.sharers.add(requester)
            self.send(MessageType.DATA_S, self.l1_nodes[requester],
                      address=line.address, data=line.copy_data(),
                      delay=self.access_latency)
            return
        # EXCLUSIVE at another owner: forward and wait for the downgrade ack.
        if line.owner == requester:
            # Stale owner information (e.g. a request racing its own PutE);
            # simply re-grant through the protocol's read-grant policy.
            self.grant_read(line, requester)
            return
        self.stats.forwarded_requests += 1
        self.block(line.address)
        self._dir_txn[line.address] = {"type": "gets_fwd", "requester": requester}
        self.send(MessageType.FWD_GETS, self.l1_nodes[line.owner],
                  address=line.address, requester=requester)

    def _on_downgrade_ack(self, msg: Message) -> None:
        assert msg.address is not None
        line = self.cache.get_line(msg.address)
        txn = self._dir_txn.pop(msg.address, None)
        if line is not None and txn is not None:
            if msg.info.get("dirty") and msg.data is not None:
                line.merge_data(msg.data)
                line.dirty = True
            line.state = self.shared_state
            line.sharers = {msg.info["owner"], txn["requester"]}
            line.owner = None
        self.unblock(msg.address)

    # ------------------------------------------------------------------ writes

    def _on_getx(self, msg: Message) -> None:
        assert msg.address is not None
        self.stats.requests["GetX"] += 1
        requester = msg.info["requester"]
        line = self.cache.get_line(msg.address)
        if line is None:
            self._fetch_and_then(msg)
            return
        if line.state is self.idle_state:
            self.grant_write(line, requester)
            return
        if line.state is self.shared_state:
            others = {sharer for sharer in line.sharers if sharer != requester}
            was_sharer = requester in line.sharers
            if not others:
                line.state = self.exclusive_state
                line.owner = requester
                line.sharers = set()
                if was_sharer:
                    # Upgrade grant: no data needed in the common case, but
                    # the line contents ride along (counted as a control
                    # message) so a requester whose shared copy was lost in
                    # flight can still complete correctly.
                    self.send(MessageType.ACK, self.l1_nodes[requester],
                              address=line.address, grant=True,
                              data=line.copy_data(),
                              delay=self.access_latency)
                else:
                    self.send(MessageType.DATA_X, self.l1_nodes[requester],
                              address=line.address, data=line.copy_data(),
                              delay=self.access_latency)
                return
            # Invalidate every other sharer, collect acks, then grant.
            self.block(line.address)
            self._dir_txn[line.address] = {
                "type": "getx_inv",
                "requester": requester,
                "pending_acks": len(others),
                "was_sharer": was_sharer,
            }
            for sharer in others:
                self.send(MessageType.INV, self.l1_nodes[sharer],
                          address=line.address, requester=requester)
            return
        # EXCLUSIVE
        if line.owner == requester:
            self.grant_write(line, requester)
            return
        self.stats.forwarded_requests += 1
        self.block(line.address)
        self._dir_txn[line.address] = {"type": "getx_fwd", "requester": requester}
        self.send(MessageType.FWD_GETX, self.l1_nodes[line.owner],
                  address=line.address, requester=requester)

    def _on_inv_ack(self, msg: Message) -> None:
        assert msg.address is not None
        if self.recall_in_progress(msg.address):
            self.advance_recall(msg.address)
            return
        txn = self._dir_txn.get(msg.address)
        if txn is None or txn["type"] != "getx_inv":
            return
        txn["pending_acks"] -= 1
        if txn["pending_acks"] > 0:
            return
        self._dir_txn.pop(msg.address, None)
        line = self.cache.get_line(msg.address)
        requester = txn["requester"]
        if line is not None:
            line.state = self.exclusive_state
            line.owner = requester
            line.sharers = set()
            if txn["was_sharer"]:
                self.send(MessageType.ACK, self.l1_nodes[requester],
                          address=line.address, grant=True,
                          data=line.copy_data())
            else:
                self.send(MessageType.DATA_X, self.l1_nodes[requester],
                          address=line.address, data=line.copy_data(),
                          delay=self.access_latency)
        self.unblock(msg.address)

    def _on_transfer_ack(self, msg: Message) -> None:
        assert msg.address is not None
        txn = self._dir_txn.pop(msg.address, None)
        line = self.cache.get_line(msg.address)
        if line is not None and txn is not None:
            line.state = self.exclusive_state
            line.owner = txn["requester"]
            line.sharers = set()
        self.unblock(msg.address)

    # ------------------------------------------------------------------ L1 evictions

    def _on_puts(self, msg: Message) -> None:
        assert msg.address is not None
        self.stats.requests["PutS"] += 1
        line = self.cache.get_line(msg.address)
        owner = msg.info["owner"]
        if line is not None and line.state is self.shared_state:
            line.sharers.discard(owner)
            if not line.sharers:
                line.state = self.idle_state

    def _on_pute(self, msg: Message) -> None:
        assert msg.address is not None
        self.stats.requests["PutE"] += 1
        self.handle_put(msg, dirty=False)

    def _on_putm(self, msg: Message) -> None:
        assert msg.address is not None
        self.stats.requests["PutM"] += 1
        self.handle_put(msg, dirty=True)

    # ------------------------------------------------------------------ allocation / memory

    def _fetch_and_then(self, request: Message) -> None:
        """Allocate a line for ``request.address``, fetch it from memory and
        then grant it to the requester through the protocol's grant policy."""
        assert request.address is not None
        line_addr = self.address_map.line_address(request.address)
        placed = self.allocate_line(line_addr)
        if placed is None:
            # Could not allocate (every way is mid-recall); retry shortly.
            request.retain()  # the retry closure outlives this delivery
            self.after(self.access_latency, lambda: self.handle_message(request))
            return
        self.block(line_addr)
        requester = request.info["requester"]
        # Capture what the continuation needs as locals, not the request
        # itself (recycled messages must not outlive their delivery).
        is_gets = request.mtype is MessageType.GETS

        def on_data(data: Dict[int, int]) -> None:
            placed.merge_data(data)
            placed.dirty = False
            if is_gets:
                self.grant_read(placed, requester)
            else:
                self.grant_write(placed, requester)
            self.unblock(line_addr)

        self.fetch_from_memory(line_addr, on_data)

    def _evict_victim(self, victim: CacheLine) -> None:
        """Recall an evicted directory line from the L1s that cache it
        (inclusive L2), then write it back to memory."""
        self.record_l2_eviction(victim)
        if victim.state is self.idle_state or victim.state is None:
            if victim.dirty:
                self.writeback_to_memory(victim.address, victim.copy_data())
            return
        if victim.state is self.exclusive_state:
            self.begin_recall(victim, pending=1)
            self.send(MessageType.RECALL, self.l1_nodes[victim.owner],
                      address=victim.address)
        else:  # SHARED
            sharers = set(victim.sharers)
            self.begin_recall(victim, pending=len(sharers))
            for sharer in sharers:
                self.send(MessageType.INV, self.l1_nodes[sharer],
                          address=victim.address, recall=True)
            if not sharers:
                self._finish_empty_recall(victim.address)

    def _finish_empty_recall(self, address: int) -> None:
        """Complete a recall that had no sharers to wait for."""
        recall = self._recalls.pop(address)
        if recall["dirty"]:
            self.writeback_to_memory(address, recall["data"])
        self.unblock(address)
