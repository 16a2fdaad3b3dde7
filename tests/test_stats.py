"""Tests for per-flow statistics accounting.

The engine updates the counters inline, so each test sets them directly and
checks the metrics derived from them."""

import pytest

from repro.netsim.stats import FlowStats


def test_throughput_definition_matches_paper():
    """Throughput = bytes received during on periods / total on time (§5.1)."""
    stats = FlowStats(0, bytes_received=1_250_000, packets_received=2)
    stats.record_on_time(2.0)
    stats.record_on_time(3.0)
    assert stats.throughput_bps() == pytest.approx((1_250_000 * 8) / 5.0)
    assert stats.throughput_mbps() == pytest.approx(2.0)
    assert stats.on_intervals == 2


def test_zero_on_time_gives_zero_throughput():
    stats = FlowStats(0, bytes_received=1000, packets_received=1)
    assert stats.throughput_bps() == 0.0


def test_queue_delay_statistics():
    stats = FlowStats(0, queue_delay_sum=0.06, queue_delay_count=3)
    assert stats.avg_queue_delay() == pytest.approx(0.02)
    assert stats.avg_queue_delay_ms() == pytest.approx(20.0)


def test_rtt_statistics():
    stats = FlowStats(0, rtt_sum=0.4, rtt_count=2)
    assert stats.avg_rtt() == pytest.approx(0.2)


def test_loss_rate_counts_detected_losses():
    stats = FlowStats(0, packets_sent=10, retransmissions=2)
    stats.record_loss()
    assert stats.loss_rate() == pytest.approx(0.1)


def test_retransmit_rate_is_separate_from_loss_rate():
    stats = FlowStats(0, packets_sent=10, retransmissions=2)
    # One loss event, but the retransmission was itself resent once: the two
    # rates differ, which is why they are reported separately.
    stats.record_loss()
    assert stats.retransmit_rate() == pytest.approx(0.2)
    assert stats.loss_rate() == pytest.approx(0.1)


def test_negative_on_time_rejected():
    stats = FlowStats(0)
    with pytest.raises(ValueError):
        stats.record_on_time(-1.0)


def test_counters_start_at_zero():
    stats = FlowStats(3)
    assert stats.flow_id == 3
    assert stats.avg_rtt() == 0.0
    assert stats.avg_queue_delay() == 0.0
    assert stats.loss_rate() == 0.0
