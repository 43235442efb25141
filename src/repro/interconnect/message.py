"""Coherence messages and flit accounting.

Every protocol in this repository communicates exclusively through
:class:`Message` objects sent over the :class:`~repro.interconnect.network.Network`.
A message carries:

* a :class:`MessageType` (request / response / forward / invalidation /
  acknowledgement / writeback / timestamp-reset ...),
* source and destination node ids,
* the line address it concerns (``None`` for broadcasts such as timestamp
  resets),
* an optional full-line data payload, and
* a free-form ``info`` dictionary for protocol-specific fields (timestamps,
  epoch-ids, owner / last-writer ids, ack counts ...).

Flit accounting follows the paper's platform: 16-byte flits, 8-byte control
header.  A control message therefore occupies 1 flit and a data-carrying
message ``ceil((8 + 64) / 16) = 5`` flits with the default 64-byte lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional


class MessageClass(Enum):
    """Coarse traffic classes used for the network-traffic breakdowns."""

    REQUEST = "request"
    RESPONSE = "response"
    FORWARD = "forward"
    INVALIDATION = "invalidation"
    ACK = "ack"
    WRITEBACK = "writeback"
    BROADCAST = "broadcast"

    # Enum.__hash__ hashes the member *name* at Python level; members are
    # singletons, so identity hashing is equivalent and keeps hot-path dict
    # lookups (stats breakdowns, dispatch tables) off the interpreter.
    __hash__ = object.__hash__


class MessageType(Enum):
    """All message types used by the MESI and TSO-CC controllers.

    The (value, class, carries_data) triple determines how each type is
    counted in traffic statistics.
    """

    # Requests (L1 -> L2 home tile)
    GETS = ("GetS", MessageClass.REQUEST, False)
    GETX = ("GetX", MessageClass.REQUEST, False)
    UPGRADE = ("Upgrade", MessageClass.REQUEST, False)
    # Forwards (L2 -> current owner L1)
    FWD_GETS = ("FwdGetS", MessageClass.FORWARD, False)
    FWD_GETX = ("FwdGetX", MessageClass.FORWARD, False)
    # Responses carrying data
    DATA_E = ("DataExclusive", MessageClass.RESPONSE, True)
    DATA_S = ("DataShared", MessageClass.RESPONSE, True)
    DATA_SRO = ("DataSharedRO", MessageClass.RESPONSE, True)
    DATA_X = ("DataForWrite", MessageClass.RESPONSE, True)
    DATA_OWNER = ("DataFromOwner", MessageClass.RESPONSE, True)
    # Invalidations / recalls
    INV = ("Inv", MessageClass.INVALIDATION, False)
    RECALL = ("Recall", MessageClass.INVALIDATION, False)
    # Acknowledgements
    ACK = ("Ack", MessageClass.ACK, False)
    INV_ACK = ("InvAck", MessageClass.ACK, False)
    L1_ACK = ("L1Ack", MessageClass.ACK, False)
    DOWNGRADE_ACK = ("DowngradeAck", MessageClass.ACK, True)
    TRANSFER_ACK = ("TransferAck", MessageClass.ACK, False)
    PUT_ACK = ("PutAck", MessageClass.ACK, False)
    # Writebacks / evictions (L1 -> L2)
    PUTS = ("PutS", MessageClass.WRITEBACK, False)
    PUTE = ("PutE", MessageClass.WRITEBACK, False)
    PUTM = ("PutM", MessageClass.WRITEBACK, True)
    WB_DATA = ("WritebackData", MessageClass.WRITEBACK, True)
    # TSO-CC timestamp-reset broadcast
    TS_RESET = ("TimestampReset", MessageClass.BROADCAST, False)

    def __init__(self, label: str, msg_class: MessageClass, carries_data: bool):
        self.label = label
        self.msg_class = msg_class
        self.carries_data = carries_data

    # Identity hashing — see MessageClass.  MessageType keys every per-type
    # traffic counter and every controller dispatch table.
    __hash__ = object.__hash__


# Dense 0..N-1 indices let controllers compile their dispatch tables into
# flat lists (``table[msg.mtype.index]``) instead of dict lookups, and the
# network index its per-type flit counts the same way.
for _index, _member in enumerate(MessageType):
    _member.index = _index

#: Number of message types; the length of every flat per-type table.
NUM_MESSAGE_TYPES = len(MessageType)


@dataclass(slots=True)
class Message:
    """A single coherence message in flight.

    Slotted: messages are the hot allocation path of multi-million-event
    runs (one object per hop, several per miss).  Messages that travel are
    allocated by :meth:`repro.interconnect.network.Network.send`, which
    recycles each one after delivery unless its receiver kept it
    (:meth:`retain`); a message built directly is never recycled.

    Attributes:
        mtype: the :class:`MessageType`.
        src: sending node id.
        dst: destination node id.
        address: line address the message concerns (``None`` for broadcasts).
        data: optional full-line data payload (offset -> value).
        info: protocol-specific fields (timestamps, epochs, ack counts ...).
    """

    mtype: MessageType
    src: int
    dst: int
    address: Optional[int] = None
    data: Optional[Dict[int, int]] = None
    info: Dict[str, Any] = field(default_factory=dict)
    #: Set via :meth:`retain` by a receiver that keeps the message alive past
    #: its delivery callback (deferred replay, blocked queues, fetch
    #: continuations); a retained message is never recycled.
    retained: bool = False

    def retain(self) -> "Message":
        """Opt this message out of recycling.

        Handlers **must** call this before storing a delivered message (or a
        closure capturing it) for later replay — otherwise the network will
        hand the same object out again for an unrelated message.
        """
        self.retained = True
        return self

    def flits(self, flit_bytes: int = 16, header_bytes: int = 8, line_bytes: int = 64) -> int:
        """Return the number of flits this message occupies on a link."""
        if self.mtype.carries_data and self.data is not None:
            return max(1, math.ceil((header_bytes + line_bytes) / flit_bytes))
        if self.mtype.carries_data:
            # Data-class message sent without a payload (e.g. a dataless
            # grant); still sized as a control message.
            return max(1, math.ceil(header_bytes / flit_bytes))
        return max(1, math.ceil(header_bytes / flit_bytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        addr = f"{self.address:#x}" if self.address is not None else "-"
        return (
            f"<Msg {self.mtype.label} {self.src}->{self.dst} addr={addr} "
            f"info={self.info}>"
        )
