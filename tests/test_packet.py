"""Unit tests for packets and acknowledgment construction (the receiver's
in-place conversion)."""

from repro.netsim.events import EventScheduler
from repro.netsim.packet import ACK_PACKET_BYTES, DATA_PACKET_BYTES, AckInfo, Packet
from repro.netsim.receiver import Receiver


def test_data_packet_defaults():
    packet = Packet(flow_id=3, seq=7, sent_time=1.25)
    assert packet.flow_id == 3
    assert packet.seq == 7
    assert packet.size_bytes == DATA_PACKET_BYTES
    assert not packet.is_ack
    assert packet.sent_time == 1.25
    assert not packet.retransmit
    assert not packet.ecn_marked


def _ack_for(packet: Packet, now: float = 2.4) -> Packet:
    """What ``Receiver.connect``'s closure hands back for ``packet`` at ``now``."""
    scheduler = EventScheduler()
    scheduler.now = now
    acks: list[Packet] = []
    receiver = Receiver(packet.flow_id, scheduler)
    receiver.next_expected = packet.seq
    receiver.connect(acks.append)
    receiver.on_packet(packet)
    [ack] = acks
    return ack


def test_receiver_converts_the_data_packet_into_its_ack_in_place():
    packet = Packet(flow_id=1, seq=10, sent_time=2.0)
    packet.retransmit = True
    packet.ecn_capable = True
    packet.ecn_marked = True
    packet.enqueue_time = 2.1
    packet.xcp_cwnd, packet.xcp_rtt, packet.xcp_demand, packet.xcp_feedback = 7.0, 0.2, 1.5, 3.5
    ack = _ack_for(packet)
    assert ack is packet  # no second object
    # Carried over: the segment's identity, Karn's rule, the XCP header.
    assert (ack.flow_id, ack.seq, ack.retransmit) == (1, 10, True)
    assert (ack.xcp_cwnd, ack.xcp_rtt, ack.xcp_demand, ack.xcp_feedback) == (7.0, 0.2, 1.5, 3.5)
    # Written: the acknowledgment fields and the echoes.
    assert ack.is_ack and ack.size_bytes == ACK_PACKET_BYTES
    assert (ack.ack_seq, ack.sacked_seq) == (11, 10)
    assert (ack.echo_sent_time, ack.sent_time) == (2.0, 2.4)
    assert ack.ecn_echo is True
    # Reset: the ECN bits and the queue stamp.
    assert (ack.ecn_capable, ack.ecn_marked, ack.enqueue_time) == (False, False, 0.0)


def test_receiver_ack_carries_the_retransmit_flag():
    for retransmit in (True, False):
        packet = Packet(flow_id=0, seq=5, sent_time=1.0)
        packet.retransmit = retransmit
        ack = _ack_for(packet, now=1.2)
        assert (ack.ack_seq, ack.retransmit, ack.ecn_echo) == (6, retransmit, False)


def test_ack_info_is_frozen():
    info = AckInfo(
        now=1.0,
        newly_acked_bytes=1500,
        rtt=0.1,
        echo_sent_time=0.9,
    )
    assert info.rtt == 0.1
    try:
        info.rtt = 0.2  # type: ignore[misc]
        raised = False
    except AttributeError:
        raised = True
    assert raised
