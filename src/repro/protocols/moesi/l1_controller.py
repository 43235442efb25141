"""MOESI private-cache (L1) controller.

Subclasses the MESI state machine and changes exactly the owner-forwarding
path: when another core reads a line this core holds dirty (Modified or
already Owned), the copy stays resident in ``OWNED`` and the forwarded data
is served from it — no writeback to the L2, no loss of the dirty data
(*dirty sharing*).  A clean Exclusive copy downgrades to Shared exactly as
in MESI.  Everything else — miss handling, upgrades (a write to an Owned
line is an upgrade miss, since sharers exist), ownership hand-over on
``FwdGetX``, recalls and writebacks — is inherited; Owned victims take the
dirty-writeback path automatically because the line keeps its dirty bit.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.interconnect.message import Message, MessageType
from repro.memsys.cacheline import CacheLine
from repro.protocols.mesi.l1_controller import MESIL1Controller
from repro.protocols.moesi.states import MOESIL1State


class MOESIL1Controller(MESIL1Controller):
    """L1 cache controller for MOESI (MESI plus owner forwarding)."""

    protocol_label = "MOESI"
    state_enum = MOESIL1State
    shared_state = MOESIL1State.SHARED
    exclusive_state = MOESIL1State.EXCLUSIVE
    modified_state = MOESIL1State.MODIFIED
    owned_state = MOESIL1State.OWNED

    def _line_or_evicting(self, address: int) -> Optional[CacheLine]:
        """An Owned resident copy is authoritative for forwards too (it is
        the only up-to-date copy), unlike a plain Shared one."""
        line = self.cache.get_line(address)
        if line is not None and isinstance(line.state, self.state_enum) \
                and (line.state.is_private or line.state is self.owned_state):
            return line
        return self.evicting_line(address)

    def _on_fwd_gets(self, msg: Message) -> None:
        """Serve a read forward.  Dirty resident copies (Modified/Owned)
        enter — or stay in — ``OWNED`` and keep the data; the directory is
        told with a data-less ``owned`` acknowledgement.  Clean Exclusive
        copies (and copies already in the writeback buffer) take the MESI
        downgrade-to-Shared path."""
        assert msg.address is not None
        if self._defer_forward_if_pending(msg):
            return
        requester = msg.info["requester"]
        line = self._line_or_evicting(msg.address)
        data: Dict[int, int] = line.copy_data() if line is not None else {}
        resident = line is not None and self.cache.get_line(msg.address) is line
        if resident and (line.dirty or line.state is self.owned_state):
            line.state = self.owned_state
            self.send(MessageType.DATA_OWNER, self.l1_nodes[requester],
                      address=msg.address, data=data, writer=self.core_id)
            self.send(MessageType.DOWNGRADE_ACK, msg.src, address=msg.address,
                      owned=True, owner=self.core_id, requester=requester)
            return
        dirty = bool(line is not None and line.dirty)
        if resident:
            line.state = self.shared_state
            line.dirty = False
        self.send(MessageType.DATA_OWNER, self.l1_nodes[requester],
                  address=msg.address, data=data, writer=self.core_id)
        self.send(MessageType.DOWNGRADE_ACK, msg.src, address=msg.address,
                  data=data, dirty=dirty, owner=self.core_id,
                  requester=requester)
