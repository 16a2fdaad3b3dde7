"""Per-flow statistics collection.

The metrics follow §5.1 of the paper:

* **throughput** of an on/off source = (total bytes received while the source
  was "on") / (total time the source was "on");
* **queueing delay** = per-packet delay in excess of the minimum RTT, i.e. the
  time each data packet spent waiting in the bottleneck queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(slots=True)
class HopDelayStats:
    """Queueing-delay accumulator for one (flow, hop) pair.

    The per-hop breakdown of :attr:`FlowStats.queue_delay_sum`: a multi-hop
    :class:`~repro.netsim.path.PathNetwork` attaches one of these per forward
    hop a flow traverses, so "which bottleneck contributed the queueing" is
    answerable after the run.  Accumulation is independent of (and in
    addition to) the flow-total counters, so the committed fingerprints —
    which pin the totals — are unaffected; per-hop sums add up to the total
    only within float tolerance (different summation order).
    """

    delay_sum: float = 0.0
    count: int = 0
    max_delay: float = 0.0

    def avg_delay(self) -> float:
        """Mean per-packet queueing delay at this hop (seconds)."""
        if self.count == 0:
            return 0.0
        return self.delay_sum / self.count

    def avg_delay_ms(self) -> float:
        """Mean per-packet queueing delay at this hop (milliseconds)."""
        return self.avg_delay() * 1000


@dataclass(slots=True)
class FlowStats:
    """Accumulated statistics for one sender-receiver pair."""

    flow_id: int
    bytes_received: int = 0
    packets_received: int = 0
    packets_sent: int = 0
    retransmissions: int = 0
    losses_detected: int = 0
    timeouts: int = 0
    on_time: float = 0.0
    on_intervals: int = 0
    queue_delay_sum: float = 0.0
    queue_delay_count: int = 0
    rtt_sum: float = 0.0
    rtt_count: int = 0
    min_rtt: Optional[float] = None
    max_queue_delay: float = 0.0
    #: (time, sequence) points for convergence plots (only populated when the
    #: simulation is asked to trace a flow — see Figure 6).
    sequence_trace: list[tuple[float, int]] = field(default_factory=list)

    # -- recording -----------------------------------------------------------
    def record_on_time(self, duration: float) -> None:
        if duration < 0:
            raise ValueError("on-interval duration cannot be negative")
        self.on_time += duration
        self.on_intervals += 1

    def record_loss(self) -> None:
        self.losses_detected += 1

    def record_timeout(self) -> None:
        self.timeouts += 1

    # -- derived metrics -------------------------------------------------------
    def throughput_bps(self) -> float:
        """Average throughput in bits/second over the flow's "on" time."""
        if self.on_time <= 0:
            return 0.0
        return self.bytes_received * 8 / self.on_time

    def throughput_mbps(self) -> float:
        """Average throughput in megabits/second over the flow's "on" time."""
        return self.throughput_bps() / 1e6

    def avg_queue_delay(self) -> float:
        """Mean per-packet queueing delay (seconds)."""
        if self.queue_delay_count == 0:
            return 0.0
        return self.queue_delay_sum / self.queue_delay_count

    def avg_queue_delay_ms(self) -> float:
        """Mean per-packet queueing delay (milliseconds)."""
        return self.avg_queue_delay() * 1000

    def avg_rtt(self) -> float:
        """Mean measured round-trip time (seconds)."""
        if self.rtt_count == 0:
            return 0.0
        return self.rtt_sum / self.rtt_count

    def loss_rate(self) -> float:
        """Fraction of transmitted packets detected as lost.

        Based on ``losses_detected`` (dupack/timeout loss events), not on
        retransmission counts — a retransmission can itself be lost and
        resent, so the two rates genuinely differ; see
        :meth:`retransmit_rate` for the other quantity.
        """
        if self.packets_sent == 0:
            return 0.0
        return self.losses_detected / self.packets_sent

    def retransmit_rate(self) -> float:
        """Fraction of transmitted packets that were retransmissions."""
        if self.packets_sent == 0:
            return 0.0
        return self.retransmissions / self.packets_sent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowStats(flow={self.flow_id}, tput={self.throughput_mbps():.3f} Mbps, "
            f"qdelay={self.avg_queue_delay_ms():.1f} ms, on={self.on_time:.1f}s)"
        )
