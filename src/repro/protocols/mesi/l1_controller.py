"""MESI private-cache (L1) controller.

Implements the core-facing operations (loads, stores, RMWs, fences) and the
L1 side of the directory protocol: reacting to forwarded requests when this
core is the owner, to invalidations when another core writes a shared line,
and to recalls when the inclusive L2 evicts a line this core caches.

Only the MESI state machine lives here; the pending-transaction replay,
install/evict, writeback and invalidation plumbing comes from
:class:`~repro.protocols.base.BaseL1Controller`.  The protocol states are
class attributes so that derived protocols (the MSI baseline) can reuse the
state machine with their own state enum.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.interconnect.message import NUM_MESSAGE_TYPES, Message, MessageType
from repro.memsys.cacheline import CacheLine
from repro.protocols.base import BaseL1Controller, PendingTransaction
from repro.protocols.mesi.states import MESIL1State


class MESIL1Controller(BaseL1Controller):
    """L1 cache controller for the MESI directory baseline."""

    protocol_label = "MESI"
    state_enum = MESIL1State
    shared_state = MESIL1State.SHARED
    exclusive_state = MESIL1State.EXCLUSIVE
    modified_state = MESIL1State.MODIFIED
    message_handlers = {
        MessageType.DATA_E: "_on_data",
        MessageType.DATA_S: "_on_data",
        MessageType.DATA_X: "_on_data",
        MessageType.DATA_OWNER: "_on_data",
        MessageType.ACK: "_on_grant_ack",
        MessageType.FWD_GETS: "_on_fwd_gets",
        MessageType.FWD_GETX: "_on_fwd_getx",
        MessageType.INV: "handle_invalidation",
        MessageType.RECALL: "_on_recall",
        MessageType.PUT_ACK: "_on_put_ack",
    }

    @classmethod
    def _build_tables(cls) -> None:
        """Compile the data-response → install-state transition table.

        Built from the class's state attributes so derived protocols
        (MSI, MOESI) get their own states without re-deriving the table.
        ``DATA_OWNER`` stays ``None``: its install state depends on the
        pending transaction's kind.
        """
        table = [None] * NUM_MESSAGE_TYPES
        table[MessageType.DATA_E.index] = cls.exclusive_state
        table[MessageType.DATA_S.index] = cls.shared_state
        table[MessageType.DATA_X.index] = cls.modified_state
        cls._data_state = tuple(table)

    # ------------------------------------------------------------------ core ops

    def issue_load(self, address: int, callback: Callable[[int], None]) -> None:
        """Perform a word load (see :class:`L1ControllerInterface`)."""
        queue = self._waiting.get(address & self._line_mask)
        if queue is not None:
            queue.append(lambda: self.issue_load(address, callback))
            return
        start = self.sim.now
        line = self.cache.get_line(address)
        if line is not None and isinstance(line.state, self.state_enum):
            self.stats.read_hits[line.state.category] += 1
            self._complete_load(
                callback, line.data.get(address & self._offset_mask, 0), start)
            return
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
        """Perform a word store (called by the core's write-buffer drain)."""
        queue = self._waiting.get(address & self._line_mask)
        if queue is not None:
            queue.append(lambda: self.issue_store(address, value, callback))
            return
        start = self.sim.now
        line = self.cache.get_line(address)
        if line is not None and isinstance(line.state, self.state_enum) and line.state.is_private:
            line.state = self.modified_state
            line.data[address & self._offset_mask] = value
            line.dirty = True
            self.stats.write_hits["private"] += 1
            self._complete_store(callback, start)
            return
        category = "shared" if line is not None else "invalid"
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
                  address=txn.line_address, requester=self.core_id,
                  had_shared_copy=line is not None)

    def issue_rmw(
        self, address: int, modify: Callable[[int], int], callback: Callable[[int], None]
    ) -> None:
        """Perform an atomic read-modify-write."""
        queue = self._waiting.get(address & self._line_mask)
        if queue is not None:
            queue.append(lambda: self.issue_rmw(address, modify, callback))
            return
        start = self.sim.now
        line = self.cache.get_line(address)
        if line is not None and isinstance(line.state, self.state_enum) and line.state.is_private:
            data = line.data
            offset = address & self._offset_mask
            old = data.get(offset, 0)
            data[offset] = modify(old)
            line.dirty = True
            line.state = self.modified_state
            self.stats.write_hits["private"] += 1
            self._complete_rmw(callback, old, start)
            return
        category = "shared" if line is not None else "invalid"
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
                  address=txn.line_address, requester=self.core_id,
                  had_shared_copy=line is not None)

    def issue_fence(self, callback: Callable[[], None]) -> None:
        """Fences are a no-op for the eager MESI protocol (the core model has
        already drained the write buffer)."""
        self.stats.fences += 1
        self.complete_with_latency(callback, latency=1)

    # ------------------------------------------------------------------ messages
    # handle_message comes from BaseL1Controller, driven by message_handlers.

    # -- data responses ---------------------------------------------------------

    def _on_data(self, msg: Message) -> None:
        assert msg.address is not None
        txn = self.response_txn(msg)
        self.stats.data_responses += 1
        state = self._data_state[msg.mtype.index]
        if state is None:  # DATA_OWNER
            # Data forwarded by the previous owner: shared for loads,
            # modified for stores/RMWs.
            state = self.shared_state if txn.kind == "load" else self.modified_state
        line = self.install_line(msg.address, msg.data or {}, state)
        self.finish_txn_with_line(txn, line)
        if txn.inv_raced and state is self.shared_state:
            # An invalidation overtook this (older) shared-data response: the
            # directory no longer tracks us, so the data may be used exactly
            # once but must not stay cached (it could be stale forever).
            self.cache.remove(msg.address)

    def _on_grant_ack(self, msg: Message) -> None:
        """Write permission granted without data (upgrade from Shared)."""
        assert msg.address is not None
        txn = self.response_txn(msg)
        self.stats.data_responses += 1
        line = self.cache.get_line(msg.address)
        if line is None:
            # The shared copy was invalidated (or evicted) while the upgrade
            # was in flight; fall back to installing an empty line with the
            # directory-provided data if present.
            line = self.install_line(msg.address, msg.data or {}, self.modified_state)
        line.state = self.modified_state
        self.finish_txn_with_line(txn, line)

    # -- forwarded requests -------------------------------------------------------

    def _line_or_evicting(self, address: int) -> Optional[CacheLine]:
        """Return the copy that may serve a forwarded request: an owned
        (Exclusive/Modified) resident line or one held in the writeback
        buffer.  A Shared resident copy is never authoritative for a
        forward."""
        line = self.cache.get_line(address)
        if line is not None and isinstance(line.state, self.state_enum) and line.state.is_private:
            return line
        return self.evicting_line(address)

    def _defer_forward_if_pending(self, msg: Message) -> bool:
        """Forwarded requests can race ahead of the data that makes this core
        the owner; if the line is still in flight, replay the forward once
        the pending transaction completes."""
        assert msg.address is not None
        if self._line_or_evicting(msg.address) is not None:
            return False
        txn = self._pending.get(msg.address)
        if txn is None:
            return False
        msg.retain()  # the replay closure outlives this delivery
        txn.deferred.append(lambda: self.handle_message(msg))
        return True

    def _on_fwd_gets(self, msg: Message) -> None:
        """Another core wants to read a line we own: downgrade to Shared,
        forward the data and acknowledge the directory."""
        assert msg.address is not None
        if self._defer_forward_if_pending(msg):
            return
        requester = msg.info["requester"]
        line = self._line_or_evicting(msg.address)
        data: Dict[int, int] = line.copy_data() if line is not None else {}
        dirty = bool(line is not None and line.dirty)
        if line is not None and self.cache.get_line(msg.address) is line:
            line.state = self.shared_state
            line.dirty = False
        self.send(MessageType.DATA_OWNER, self.l1_nodes[requester],
                  address=msg.address, data=data, writer=self.core_id)
        self.send(MessageType.DOWNGRADE_ACK, msg.src, address=msg.address,
                  data=data, dirty=dirty, owner=self.core_id, requester=requester)

    def _on_fwd_getx(self, msg: Message) -> None:
        """Another core wants to write a line we own: hand over ownership."""
        assert msg.address is not None
        if self._defer_forward_if_pending(msg):
            return
        requester = msg.info["requester"]
        line = self._line_or_evicting(msg.address)
        data: Dict[int, int] = line.copy_data() if line is not None else {}
        if self.cache.get_line(msg.address) is not None:
            self.cache.remove(msg.address)
        self.stats.invalidations_received += 1
        self.send(MessageType.DATA_OWNER, self.l1_nodes[requester],
                  address=msg.address, data=data, writer=self.core_id)
        self.send(MessageType.TRANSFER_ACK, msg.src, address=msg.address,
                  new_owner=requester, old_owner=self.core_id)

    def _on_recall(self, msg: Message) -> None:
        """The inclusive L2 is evicting a line we own: write it back."""
        assert msg.address is not None
        if self._defer_forward_if_pending(msg):
            return
        line = self._line_or_evicting(msg.address)
        data = line.copy_data() if line is not None else {}
        dirty = bool(line is not None and line.dirty)
        if self.cache.get_line(msg.address) is not None:
            self.cache.remove(msg.address)
        self.stats.invalidations_received += 1
        self.send(MessageType.WB_DATA, msg.src, address=msg.address,
                  data=data, dirty=dirty, owner=self.core_id)

    def _on_put_ack(self, msg: Message) -> None:
        assert msg.address is not None
        self.release_evicting(msg.address)

    # ------------------------------------------------------------------ evictions

    def _evict(self, victim: CacheLine) -> None:
        if not isinstance(victim.state, self.state_enum):
            return
        self.stats.evictions[victim.state.category] += 1
        if victim.state is self.shared_state:
            # Notify the directory so it can drop us from the sharing vector.
            self.send(MessageType.PUTS, self.home_node(victim.address),
                      address=victim.address, owner=self.core_id)
            return
        self.writeback_victim(victim)
