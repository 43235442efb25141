"""Broadcast-snooping private-cache (L1) controller.

The request path (loads/stores/RMWs miss to the home L2 tile) is inherited
from MESI; what changes is the *other* side: there is no directory, so this
controller answers **snoops** instead of targeted forwards:

* a read snoop (``FwdGetS`` broadcast by the home tile) answers whether this
  core held any copy and attaches the data when the copy was dirty,
  downgrading a private copy to Shared;
* a write/recall snoop (``Inv``) drops whatever copy exists and attaches
  dirty data.

Both answer with a ``DowngradeAck`` so dirty payloads are flit-accounted as
data.  Snoops are **never deferred** behind a pending transaction — every
snoop transaction at the home tile waits for all cores to answer, so a
deferred answer would deadlock against this core's own queued request.
Answering immediately is safe because the home tile never has a snoop and a
grant for the same line in flight at once: every installed data response is
acknowledged back to the tile (``L1Ack``), which holds the line blocked
until then (see the L2 controller's grant handshake).

Evictions are silent for clean copies (Shared *and* Exclusive — there is no
directory to notify); only dirty victims write back (``PutM``).
"""

from __future__ import annotations

from repro.interconnect.message import Message, MessageType
from repro.memsys.cacheline import CacheLine
from repro.protocols.broadcast.states import BroadcastL1State
from repro.protocols.mesi.l1_controller import MESIL1Controller


class BroadcastL1Controller(MESIL1Controller):
    """L1 cache controller for the directory-less broadcast strawman."""

    protocol_label = "Broadcast"
    state_enum = BroadcastL1State
    shared_state = BroadcastL1State.SHARED
    exclusive_state = BroadcastL1State.EXCLUSIVE
    modified_state = BroadcastL1State.MODIFIED

    def _on_data(self, msg: Message) -> None:
        """Install the grant, then close the home tile's handshake: the tile
        keeps the line blocked until this ``L1Ack`` so that no snoop can
        overtake the (larger, slower) data response in the network."""
        super()._on_data(msg)
        self.send(MessageType.L1_ACK, msg.src, address=msg.address,
                  acker=self.core_id)

    def _snoop_source(self, address: int):
        """The copy whose data may answer a snoop: a dirty resident private
        line or one held in the writeback buffer."""
        line = self.cache.get_line(address)
        if line is not None and isinstance(line.state, self.state_enum) \
                and line.state.is_private:
            return line
        return self.evicting_line(address)

    def _on_fwd_gets(self, msg: Message) -> None:
        """Answer a read snoop: report whether any copy was held, hand over
        dirty data, and downgrade a private copy to Shared."""
        assert msg.address is not None
        line = self.cache.get_line(msg.address)
        held = line is not None and isinstance(line.state, self.state_enum)
        source = self._snoop_source(msg.address)
        dirty = bool(source is not None and source.dirty)
        data = source.copy_data() if dirty else None
        if held and line.state.is_private:
            line.state = self.shared_state
            line.dirty = False
        self.send(MessageType.DOWNGRADE_ACK, msg.src, address=msg.address,
                  data=data, dirty=dirty,
                  had_copy=held or self.evicting_line(msg.address) is not None,
                  snooper=self.core_id)

    def handle_invalidation(self, msg: Message) -> None:
        """Answer a write/recall snoop: drop any copy, hand over dirty data,
        and poison a racing in-flight data response."""
        assert msg.address is not None
        source = self._snoop_source(msg.address)
        dirty = bool(source is not None and source.dirty)
        data = source.copy_data() if dirty else None
        if self.cache.get_line(msg.address) is not None:
            self.cache.remove(msg.address)
        txn = self._pending.get(msg.address)
        if txn is not None:
            txn.inv_raced = True
        self.stats.invalidations_received += 1
        self.send(MessageType.DOWNGRADE_ACK, msg.src, address=msg.address,
                  data=data, dirty=dirty, snooper=self.core_id)

    def _evict(self, victim: CacheLine) -> None:
        if not isinstance(victim.state, self.state_enum):
            return
        self.stats.evictions[victim.state.category] += 1
        if victim.dirty or victim.state is self.modified_state:
            self.writeback_victim(victim)
        # Clean victims (Shared or Exclusive) drop silently: no directory
        # tracks this copy and the L2's data is already current.
