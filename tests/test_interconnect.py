"""Tests for messages, mesh topology and the network model."""

import pytest
from hypothesis import given, strategies as st

from repro.interconnect.message import Message, MessageClass, MessageType
from repro.interconnect.network import Network
from repro.interconnect.topology import MeshTopology
from repro.sim.simulator import Simulator


# ---------------------------------------------------------------------- messages

def test_control_message_is_one_flit():
    msg = Message(mtype=MessageType.GETS, src=0, dst=1, address=0x40)
    assert msg.flits(flit_bytes=16, header_bytes=8, line_bytes=64) == 1


def test_data_message_flit_count_matches_paper_platform():
    msg = Message(mtype=MessageType.DATA_S, src=0, dst=1, address=0x40,
                  data={0: 1})
    # 8B header + 64B line over 16B flits = 5 flits
    assert msg.flits(flit_bytes=16, header_bytes=8, line_bytes=64) == 5


def test_dataless_response_counts_as_control():
    msg = Message(mtype=MessageType.DATA_X, src=0, dst=1, address=0x40, data=None)
    assert msg.flits() == 1


def test_message_classes():
    assert MessageType.GETS.msg_class is MessageClass.REQUEST
    assert MessageType.INV.msg_class is MessageClass.INVALIDATION
    assert MessageType.TS_RESET.msg_class is MessageClass.BROADCAST
    assert MessageType.PUTM.carries_data and not MessageType.PUTE.carries_data


# ---------------------------------------------------------------------- topology

def test_node_id_assignment():
    topo = MeshTopology(num_cores=4, num_l2_tiles=4, rows=2)
    assert topo.l1_node(2) == 2
    assert topo.l2_node(1) == 5
    assert topo.is_l1_node(3) and not topo.is_l1_node(4)
    assert topo.is_l2_node(7)
    assert topo.core_of_node(3) == 3
    assert topo.tile_of_node(6) == 2


def test_colocated_l1_l2_have_zero_hops():
    topo = MeshTopology(num_cores=8, num_l2_tiles=8, rows=4)
    for core in range(8):
        assert topo.hops(topo.l1_node(core), topo.l2_node(core)) == 0


def test_hops_symmetric_and_triangle():
    topo = MeshTopology(num_cores=16, num_l2_tiles=16, rows=4)
    nodes = [topo.l1_node(0), topo.l1_node(5), topo.l2_node(12)]
    for a in nodes:
        for b in nodes:
            assert topo.hops(a, b) == topo.hops(b, a)
            assert topo.hops(a, a) == 0


def test_out_of_range_ids_rejected():
    topo = MeshTopology(num_cores=4, num_l2_tiles=4)
    with pytest.raises(ValueError):
        topo.l1_node(4)
    with pytest.raises(ValueError):
        topo.l2_node(-1)
    with pytest.raises(ValueError):
        topo.core_of_node(5)


@given(cores=st.integers(min_value=1, max_value=64),
       rows=st.integers(min_value=1, max_value=8))
def test_all_nodes_have_positions(cores, rows):
    topo = MeshTopology(num_cores=cores, num_l2_tiles=cores, rows=rows)
    for node in topo.l1_nodes + topo.l2_nodes:
        row, col = topo.node_position(node)
        assert 0 <= row < topo.rows
        assert 0 <= col < topo.cols


# ---------------------------------------------------------------------- network

class Sink:
    def __init__(self):
        self.received = []

    def handle_message(self, msg):
        self.received.append(msg)


def make_network(num_cores=4):
    sim = Simulator()
    topo = MeshTopology(num_cores=num_cores, num_l2_tiles=num_cores, rows=2)
    net = Network(topology=topo, scheduler=sim)
    sinks = {}
    for node in topo.l1_nodes + topo.l2_nodes:
        sinks[node] = Sink()
        net.register(node, sinks[node])
    return sim, topo, net, sinks


def test_network_delivers_after_latency():
    sim, topo, net, sinks = make_network()
    msg = net.send(MessageType.GETS, 0, topo.l2_node(3), address=0x40)
    assert (msg.mtype, msg.src, msg.dst, msg.address) == (
        MessageType.GETS, 0, topo.l2_node(3), 0x40)
    assert sinks[topo.l2_node(3)].received == []
    sim.run()
    assert sinks[topo.l2_node(3)].received == [msg]
    assert sim.now == net.latency(0, topo.l2_node(3), flits=1) >= net.min_latency
    assert net.in_flight == 0


def test_network_traffic_accounting():
    sim, topo, net, sinks = make_network()
    net.send(MessageType.GETS, 0, 1, address=0x40)
    net.send(MessageType.DATA_S, 1, 0, address=0x40, data={0: 1})
    sim.run()
    assert net.stats.messages == 2
    assert net.stats.flits == 1 + 5
    assert net.stats.by_class[MessageClass.REQUEST] == 1
    assert net.stats.flits_by_class[MessageClass.RESPONSE] == 5
    assert net.stats.as_dict()["flits"] == 6


def test_zero_hop_message_still_weighted_as_one_hop():
    # An L1 and its co-located L2 tile are 0 mesh hops apart, but the
    # message still crosses the tile-local interconnect once, so the
    # hop-weighted traffic floor is flits * 1 — never flits * 0.  Goldens
    # pin this; see DESIGN.md ("Traffic accounting").
    sim, topo, net, sinks = make_network()
    l2 = topo.l2_node(0)
    assert topo.hops(0, l2) == 0
    net.send(MessageType.GETS, 0, l2, address=0x40)
    net.send(MessageType.DATA_S, l2, 0, address=0x40, data={0: 1})
    sim.run()
    assert net.stats.flits == 1 + 5
    assert net.stats.hops_weighted_flits == 1 + 5  # floored at one hop


def test_network_broadcast_excludes_sender():
    sim, topo, net, sinks = make_network()
    template = Message(mtype=MessageType.TS_RESET, src=0, dst=0,
                       info={"source": 0, "epoch": 1})
    count = net.broadcast(template, topo.l1_nodes, exclude=0)
    sim.run()
    assert count == 3
    assert not sinks[0].received
    for node in (1, 2, 3):
        assert len(sinks[node].received) == 1
        assert sinks[node].received[0].info["epoch"] == 1


def test_unregistered_destination_rejected():
    sim = Simulator()
    topo = MeshTopology(num_cores=2, num_l2_tiles=2)
    net = Network(topology=topo, scheduler=sim)
    with pytest.raises(ValueError):
        net.send(MessageType.GETS, 0, 1)


def test_duplicate_registration_rejected():
    sim, topo, net, sinks = make_network()
    with pytest.raises(ValueError):
        net.register(0, Sink())


def test_larger_messages_take_longer():
    sim, topo, net, _ = make_network()
    src, dst = 0, topo.l2_node(3)
    control = net.latency(src, dst, flits=1)
    data = net.latency(src, dst, flits=5)
    assert data == control + 4


# ------------------------------------------------------------ message recycling

def test_pooled_message_recycled_after_delivery():
    sim, topo, net, sinks = make_network()
    msg = net.send(MessageType.GETS, 0, 1, address=0x40, info={"requester": 0})
    assert not msg.retained
    sim.run()
    assert sinks[1].received == [msg]
    # The handler returned without retaining, so the network owns it again:
    # the next send hands out the identical object, fully reset.
    reused = net.send(MessageType.DATA_S, 2, 3, address=0x80, data={0: 7})
    assert reused is msg
    assert reused.mtype is MessageType.DATA_S
    assert (reused.src, reused.dst, reused.address) == (2, 3, 0x80)
    assert reused.data == {0: 7}
    assert reused.info == {}
    assert not reused.retained


def test_retained_message_survives_delivery():
    sim, topo, net, sinks = make_network()
    msg = net.send(MessageType.GETS, 0, 1, address=0x40, info={"requester": 0})
    msg.retain()
    sim.run()
    # Retained messages are never recycled: a later send must not alias.
    other = net.send(MessageType.GETS, 0, 1, address=0x80)
    assert other is not msg
    assert msg.info == {"requester": 0}


def test_directly_constructed_message_never_pooled():
    # A hand-built message (a broadcast template) is only ever copied: the
    # copies travel and are recycled, the template never enters the free
    # list.
    sim, topo, net, sinks = make_network()
    template = Message(mtype=MessageType.TS_RESET, src=0, dst=0,
                       info={"epoch": 1})
    net.broadcast(template, [1, 2])
    sim.run()
    delivered = sinks[1].received + sinks[2].received
    assert len(delivered) == 2 and template not in delivered
    assert all(net.send(MessageType.GETS, 0, 1) is not template
               for _ in range(3))


# ---------------------------------------------------------------- stats folding

def test_network_stats_fold_matches_flat_counters():
    sim, topo, net, _ = make_network()
    net.send(MessageType.GETS, 0, 1, address=0x40)
    net.send(MessageType.GETS, 2, 1, address=0x80)
    net.send(MessageType.DATA_S, 1, 0, address=0x40, data={0: 1})
    sim.run()
    stats = net.stats
    assert stats.by_type[MessageType.GETS] == 2
    assert stats.by_type[MessageType.DATA_S] == 1
    assert stats.by_class[MessageClass.REQUEST] == 2
    assert stats.by_class[MessageClass.RESPONSE] == 1
    assert stats.flits_by_class[MessageClass.REQUEST] == 2
    assert stats.flits_by_class[MessageClass.RESPONSE] == 5
    # Folding is idempotent: reading twice must not double-count.
    assert stats.by_type[MessageType.GETS] == 2
    d = stats.as_dict()
    assert d["messages"] == 3 and d["flits"] == 7


def test_network_stats_equality_after_fold():
    sim1, _, net1, _ = make_network()
    sim2, _, net2, _ = make_network()
    for net, sim in ((net1, sim1), (net2, sim2)):
        net.send(MessageType.GETS, 0, 1, address=0x40)
        sim.run()
    net1.stats.by_type  # fold one side only; equality must still hold
    assert net1.stats == net2.stats
    net2.send(MessageType.GETS, 0, 1, address=0x80)
    sim2.run()
    assert net1.stats != net2.stats
