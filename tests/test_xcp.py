"""Unit and integration tests for XCP (router + endpoint)."""

import pytest

from repro.netsim.path import PathSpec
from repro.netsim.packet import AckInfo, Packet
from repro.netsim.sender import AlwaysOnWorkload
from repro.netsim.simulator import Simulation
from repro.protocols.xcp import XCP, XCPRouterQueue


def make_ack(feedback=0.0, rtt=0.1, newly_acked=1500):
    return AckInfo(
        now=1.0,
        newly_acked_bytes=newly_acked,
        rtt=rtt,
        echo_sent_time=0.9,
        xcp_feedback=feedback,
    )


class TestXCPEndpoint:
    def test_stamps_congestion_header_on_send(self):
        cc = XCP(initial_window=4)
        cc.rtt_estimate = 0.2
        packet = Packet(0, 0)
        cc.on_packet_sent(packet, now=1.0)
        assert packet.xcp_cwnd == 4
        assert packet.xcp_rtt == 0.2

    def test_applies_positive_feedback(self):
        cc = XCP(initial_window=4)
        cc.on_ack(make_ack(feedback=2.5))
        assert cc.cwnd == pytest.approx(6.5)

    def test_applies_negative_feedback_with_floor(self):
        cc = XCP(initial_window=4)
        cc.on_ack(make_ack(feedback=-10))
        assert cc.cwnd == 1.0

    def test_tracks_rtt_estimate(self):
        cc = XCP()
        cc.on_ack(make_ack(rtt=0.2))
        assert cc.rtt_estimate == pytest.approx(0.2)
        cc.on_ack(make_ack(rtt=0.1))
        assert 0.1 < cc.rtt_estimate < 0.2


class TestXCPRouter:
    def test_positive_feedback_when_link_underused(self):
        queue = XCPRouterQueue(link_rate_bps=10e6, control_interval=0.1)
        # Trickle traffic far below capacity across several intervals.
        now = 0.0
        last_feedback = None
        for seq in range(50):
            packet = Packet(0, seq)
            packet.xcp_cwnd = 4
            packet.xcp_rtt = 0.1
            packet.xcp_demand = float("inf")
            queue.enqueue(packet, now)
            queue.dequeue(now + 0.001)
            last_feedback = packet.xcp_feedback
            now += 0.05
        assert queue.last_aggregate_feedback > 0
        assert last_feedback > 0

    def test_negative_feedback_when_queue_builds(self):
        queue = XCPRouterQueue(link_rate_bps=1e6, control_interval=0.05)
        now = 0.0
        # Flood the router far above capacity without draining.
        for seq in range(600):
            packet = Packet(0, seq)
            packet.xcp_cwnd = 100
            packet.xcp_rtt = 0.1
            queue.enqueue(packet, now)
            now += 0.001
        assert queue.last_aggregate_feedback < 0

    def test_capacity_drop(self):
        queue = XCPRouterQueue(capacity_packets=10, link_rate_bps=1e6)
        for seq in range(20):
            queue.enqueue(Packet(0, seq), 0.0)
        assert len(queue) == 10
        assert queue.drops == 10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            XCPRouterQueue(link_rate_bps=0)
        with pytest.raises(ValueError):
            XCPRouterQueue(control_interval=0)


class TestXCPEndToEnd:
    def test_single_flow_converges_to_high_utilization_with_small_queue(self):
        spec = PathSpec.dumbbell(rate_bps=8e6, rtt=0.1, n_flows=1, queue="xcp")
        result = Simulation(spec, [XCP()], [AlwaysOnWorkload()], duration=15.0, seed=0).run()
        stats = result.flow_stats[0]
        assert stats.throughput_mbps() > 5.5
        assert stats.avg_queue_delay_ms() < 40

    def test_two_flows_share_fairly(self):
        spec = PathSpec.dumbbell(rate_bps=8e6, rtt=0.1, n_flows=2, queue="xcp")
        result = Simulation(
            spec,
            [XCP(), XCP()],
            [AlwaysOnWorkload(), AlwaysOnWorkload(start_delay=2.0)],
            duration=20.0,
            seed=0,
        ).run()
        tputs = sorted(result.throughputs_mbps())
        assert tputs[0] > 1.5  # the late-starting flow still gets a fair-ish share
        assert sum(tputs) < 8.0 * 1.05
