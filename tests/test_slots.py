"""The hot-path records (messages, cache lines, pending transactions) are
slotted: no per-instance ``__dict__`` on the multi-million-object
allocation paths, and typo'd attributes fail loudly."""

import pytest

from repro.interconnect.message import Message, MessageType
from repro.memsys.cacheline import CacheLine
from repro.protocols.base import PendingTransaction


@pytest.mark.parametrize("instance", [
    Message(mtype=MessageType.GETS, src=0, dst=1, address=0x40),
    CacheLine(address=0x40),
    PendingTransaction(kind="load", line_address=0x40, address=0x44),
])
def test_hot_path_records_have_no_dict(instance):
    assert not hasattr(instance, "__dict__")
    with pytest.raises(AttributeError):
        instance.no_such_attribute = 1


def test_slotted_records_still_behave():
    msg = Message(mtype=MessageType.DATA_S, src=0, dst=1, address=0x40,
                  data={0: 7}, info={"writer": 2})
    assert msg.flits() == 5 and msg.info["writer"] == 2
    line = CacheLine(address=0x40)
    line.write_word(8, 9)
    assert line.read_word(8) == 9 and line.dirty
    line.reset_metadata()
    txn = PendingTransaction(kind="store", line_address=0x40, address=0x48, value=1)
    txn.inv_raced = True
    assert txn.inv_raced
