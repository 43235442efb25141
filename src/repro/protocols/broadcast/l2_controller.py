"""Broadcast-snooping shared-cache (L2) tile controller.

Each home tile is still the serialization point for its address slice, but
it keeps **no directory state**: for every request to a resident line it
broadcasts a snoop to *every other core*, collects all the answers, merges
any dirty data and only then responds to the requester.  Traffic therefore
grows linearly with the core count on every shared-line access — the
strawman the paper's Figure 2/4 directory arguments are made against —
while the storage cost drops to a valid bit per line.

Flow summary:

* ``GetS`` on a resident line → broadcast ``FwdGetS``; grant Exclusive if
  no core reported a copy, Shared otherwise.
* ``GetX`` on a resident line → broadcast ``Inv``; grant ``DataForWrite``
  once every core has answered (eager invalidation, so TSO is preserved).
* A line absent from the (inclusive) L2 has no L1 copies, so a memory fetch
  grants directly without snooping.
* Evicting a resident line recalls it by broadcasting ``Inv`` to **all**
  cores (inclusivity without tracking).
* ``PutM`` absorbs dirty data unconditionally — there is no owner record to
  validate against.

Without a directory the tile cannot target a racing snoop at the one core
whose grant is still in flight (and a 1-flit snoop would overtake a 5-flit
data response in the network), so grants use a **three-hop handshake**: the
line stays blocked until the requester's ``L1Ack`` confirms the data is
installed.  No snoop for a line is therefore ever in flight concurrently
with a grant for it, which is what makes the L1's answer-immediately snoop
rule safe.
"""

from __future__ import annotations

from typing import Dict

from repro.interconnect.message import Message, MessageType
from repro.memsys.cacheline import CacheLine
from repro.protocols.base import BaseL2Controller
from repro.protocols.broadcast.states import BroadcastL2State


class BroadcastL2Controller(BaseL2Controller):
    """Home-tile controller for the directory-less broadcast strawman."""

    protocol_label = "Broadcast"
    exclusive_state = None           # no owner tracking exists
    idle_state = BroadcastL2State.VALID
    message_handlers = {
        MessageType.GETS: "_on_gets",
        MessageType.GETX: "_on_getx",
        MessageType.PUTM: "_on_putm",
        MessageType.DOWNGRADE_ACK: "_on_snoop_ack",
        MessageType.L1_ACK: "_on_grant_installed",
    }
    blocking_types = frozenset({
        MessageType.GETS, MessageType.GETX, MessageType.PUTM,
    })

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # line address -> in-progress snoop transaction
        self._snoops: Dict[int, Dict] = {}

    @property
    def num_cores(self) -> int:
        return self.topology.num_cores

    # ------------------------------------------------------------------ dispatch
    # handle_message comes from BaseL2Controller, driven by message_handlers
    # and blocking_types.

    # ------------------------------------------------------------------ requests

    def _on_gets(self, msg: Message) -> None:
        assert msg.address is not None
        self.stats.requests["GetS"] += 1
        line = self.cache.get_line(msg.address)
        if line is None:
            self._fetch_and_then(msg)
            return
        self._start_snoop(line, msg.info["requester"], write=False)

    def _on_getx(self, msg: Message) -> None:
        assert msg.address is not None
        self.stats.requests["GetX"] += 1
        line = self.cache.get_line(msg.address)
        if line is None:
            self._fetch_and_then(msg)
            return
        self._start_snoop(line, msg.info["requester"], write=True)

    # ------------------------------------------------------------------ snooping

    def _start_snoop(self, line: CacheLine, requester: int, write: bool) -> None:
        """Broadcast a snoop for ``line`` to every core but the requester and
        collect the answers; the line stays blocked through the snoop *and*
        the grant handshake."""
        others = [core for core in range(self.num_cores) if core != requester]
        self.block(line.address)
        if not others:
            # Single-core platform: nobody to snoop, grant immediately.
            self._grant(line, requester, write=write, had_copy=False)
            return
        self._snoops[line.address] = {
            "write": write,
            "requester": requester,
            "pending": len(others),
            "had_copy": False,
        }
        mtype = MessageType.INV if write else MessageType.FWD_GETS
        self.stats.forwarded_requests += len(others)
        for core in others:
            self.send(mtype, self.l1_nodes[core], address=line.address,
                      requester=requester)

    def _on_snoop_ack(self, msg: Message) -> None:
        assert msg.address is not None
        if self.recall_in_progress(msg.address):
            recall = self._recalls[msg.address]
            if msg.info.get("dirty") and msg.data is not None:
                recall["data"].update(msg.data)
                recall["dirty"] = True
            self.advance_recall(msg.address)
            return
        snoop = self._snoops.get(msg.address)
        if snoop is None:  # pragma: no cover - defensive
            return
        line = self.cache.get_line(msg.address)
        assert line is not None  # blocked lines cannot be evicted
        if msg.info.get("dirty") and msg.data is not None:
            line.merge_data(msg.data)
            line.dirty = True
        if msg.info.get("had_copy"):
            snoop["had_copy"] = True
        snoop["pending"] -= 1
        if snoop["pending"] > 0:
            return
        self._snoops.pop(msg.address)
        self._grant(line, snoop["requester"], write=snoop["write"],
                    had_copy=snoop["had_copy"])

    def _grant(self, line: CacheLine, requester: int, write: bool,
               had_copy: bool) -> None:
        """Respond to the requester once every snooped core has answered.
        The line stays blocked until the requester's ``L1Ack`` reports the
        grant installed (:meth:`_on_grant_installed`)."""
        if write:
            mtype = MessageType.DATA_X
        else:
            mtype = MessageType.DATA_S if had_copy else MessageType.DATA_E
        self.send(mtype, self.l1_nodes[requester], address=line.address,
                  data=line.copy_data(), delay=self.access_latency)

    def _on_grant_installed(self, msg: Message) -> None:
        """The requester installed a granted line; end the transaction."""
        assert msg.address is not None
        self.unblock(msg.address)

    # ------------------------------------------------------------------ writebacks

    def _on_putm(self, msg: Message) -> None:
        assert msg.address is not None
        self.stats.requests["PutM"] += 1
        line = self.cache.get_line(msg.address)
        if line is not None and msg.data is not None:
            line.merge_data(msg.data)
            line.dirty = True
        elif msg.data is not None:
            # The line left the L2 while this PutM was queued (the recall
            # broadcast already collected the same data from the writeback
            # buffer); forwarding it to memory is redundant but harmless.
            self.writeback_to_memory(msg.address, msg.data)
        self.send(MessageType.PUT_ACK, msg.src, address=msg.address)

    # ------------------------------------------------------------------ allocation / memory

    def _fetch_and_then(self, request: Message) -> None:
        """A line absent from the inclusive L2 has no L1 copies, so a fetch
        grants directly (Exclusive for reads) without any snoop."""
        assert request.address is not None
        line_addr = self.address_map.line_address(request.address)
        placed = self.allocate_line(line_addr)
        if placed is None:
            request.retain()  # the retry closure outlives this delivery
            self.after(self.access_latency, lambda: self.handle_message(request))
            return
        placed.state = BroadcastL2State.VALID
        self.block(line_addr)
        requester = request.info["requester"]
        write = request.mtype is MessageType.GETX

        def on_data(data: Dict[int, int]) -> None:
            placed.merge_data(data)
            placed.dirty = False
            self._grant(placed, requester, write=write, had_copy=False)

        self.fetch_from_memory(line_addr, on_data)

    def _evict_victim(self, victim: CacheLine) -> None:
        """Recall an evicted line by broadcasting to every core: without a
        directory the tile cannot know who caches it (inclusive L2)."""
        self.record_l2_eviction(victim)
        self.begin_recall(victim, pending=self.num_cores)
        for core in range(self.num_cores):
            self.send(MessageType.INV, self.l1_nodes[core],
                      address=victim.address, recall=True)
