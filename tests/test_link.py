"""Unit tests for constant-rate and trace-driven links."""

import pytest

from repro.netsim.events import EventScheduler
from repro.netsim.link import ConstantRateLink, TraceDrivenLink
from repro.netsim.packet import Packet
from repro.netsim.path import LinkSpec
from repro.netsim.stats import FlowStats


def _packet(seq: int, size: int = 1500) -> Packet:
    return Packet(flow_id=0, seq=seq, size_bytes=size)


class TestConstantRateLink:
    def test_serialization_delay(self, scheduler):
        # 12 Mbps -> a 1500-byte packet takes exactly 1 ms to transmit.
        link = ConstantRateLink(scheduler, rate_bps=12e6)
        arrivals = []
        link.route(0, (0.0, None, lambda p: arrivals.append((scheduler.now, p.seq))))
        link.receive(_packet(0))
        scheduler.run_until(10.0)
        assert arrivals == [(pytest.approx(0.001), 0)]

    def test_back_to_back_packets_are_serialized(self, scheduler):
        link = ConstantRateLink(scheduler, rate_bps=12e6)
        arrivals = []
        link.route(0, (0.0, None, lambda p: arrivals.append(scheduler.now)))
        for seq in range(3):
            link.receive(_packet(seq))
        scheduler.run_until(10.0)
        assert arrivals == [pytest.approx(0.001), pytest.approx(0.002), pytest.approx(0.003)]

    def test_propagation_delay_added(self, scheduler):
        link = ConstantRateLink(scheduler, rate_bps=12e6, propagation_delay=0.05)
        arrivals = []
        link.route(0, (0.0, None, lambda p: arrivals.append(scheduler.now)))
        link.receive(_packet(0))
        scheduler.run_until(10.0)
        assert arrivals == [pytest.approx(0.051)]

    def test_delay_stats_record_queueing_wait_only(self, scheduler):
        link = ConstantRateLink(scheduler, rate_bps=12e6)
        link.delay_stats[0] = stats = FlowStats(0)
        link.route(0, (0.0, None, lambda p: None))
        link.receive(_packet(0))
        link.receive(_packet(1))  # waits one serialization time in the queue
        scheduler.run_until(10.0)
        assert stats.queue_delay_count == 2
        assert stats.queue_delay_sum == pytest.approx(0.001)
        assert stats.max_queue_delay == pytest.approx(0.001)

    def test_throughput_matches_rate(self, scheduler):
        link = ConstantRateLink(scheduler, rate_bps=8e6)
        delivered = []
        link.route(0, (0.0, None, lambda p: delivered.append(scheduler.now)))
        for seq in range(100):
            link.receive(_packet(seq))
        scheduler.run_until(10.0)
        # 100 packets * 1500 bytes at 8 Mbps = 0.15 s
        assert delivered[-1] == pytest.approx(0.15)
        assert len(delivered) == 100

    def test_rejects_nonpositive_rate(self, scheduler):
        with pytest.raises(ValueError):
            ConstantRateLink(scheduler, rate_bps=0)

    def test_requires_connection(self, scheduler):
        # A link no route wires has nowhere to send a packet.
        link = ConstantRateLink(scheduler, rate_bps=1e6)
        link.receive(_packet(0))
        with pytest.raises(IndexError):
            scheduler.run_until(10.0)


class TestTraceDrivenLink:
    # The trace repeats, and the first instant of a repeat is the last of
    # the cycle before it; these two stop inside the first cycle.
    def test_packets_released_at_trace_instants(self, scheduler):
        link = TraceDrivenLink(scheduler, delivery_times=[0.01, 0.02, 0.05, 0.06])
        arrivals = []
        link.route(0, (0.0, None, lambda p: arrivals.append(scheduler.now)))
        for seq in range(3):
            link.receive(_packet(seq))
        scheduler.run_until(0.055)
        assert arrivals == [pytest.approx(0.01), pytest.approx(0.02), pytest.approx(0.05)]

    def test_opportunities_without_packets_are_wasted(self, scheduler):
        link = TraceDrivenLink(scheduler, delivery_times=[0.01, 0.02, 0.03, 0.04])
        arrivals = []
        link.route(0, (0.0, None, lambda p: arrivals.append(scheduler.now)))
        link.start()
        scheduler.run_until(0.025)  # two opportunities pass with nothing queued
        link.receive(_packet(0))
        scheduler.run_until(0.035)
        assert arrivals == [pytest.approx(0.03)]

    def test_cyclic_trace_repeats(self, scheduler):
        link = TraceDrivenLink(scheduler, delivery_times=[0.0, 0.01, 0.02])
        arrivals = []
        link.route(0, (0.0, None, lambda p: arrivals.append(scheduler.now)))
        for seq in range(5):
            link.receive(_packet(seq))
        scheduler.run_until(0.2)
        assert len(arrivals) == 5
        assert arrivals[-1] > 0.02  # delivered on a repeated cycle

    def test_rejects_unsorted_trace(self, scheduler):
        with pytest.raises(ValueError):
            TraceDrivenLink(scheduler, delivery_times=[0.02, 0.01])

    def test_rejects_empty_trace(self, scheduler):
        with pytest.raises(ValueError):
            TraceDrivenLink(scheduler, delivery_times=[])

    def test_mean_rate(self):
        # 11 delivery opportunities over 1 second -> 10 packets/s long-term,
        # one 1500-byte packet each; one instant has no mean.
        times = [i * 0.1 for i in range(11)]
        assert LinkSpec(delivery_trace=times).effective_rate_bps() == pytest.approx(10 * 1500 * 8)
        assert LinkSpec(rate_bps=2e6, delivery_trace=[0.5]).effective_rate_bps() == 2e6
