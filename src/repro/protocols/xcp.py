"""XCP: the eXplicit Control Protocol (Katabi, Handley & Rohrs, 2002).

XCP is the router-assisted baseline of the paper's evaluation.  Every data
packet carries a congestion header (the sender's current window and RTT
estimate plus a feedback field).  The router runs two controllers once per
control interval (about one average RTT):

* an **efficiency controller** computing the aggregate feedback
  ``phi = alpha * d * S - beta * Q`` where ``S`` is the spare bandwidth and
  ``Q`` the persistent queue, and
* a **fairness controller** that apportions positive feedback inversely to
  each flow's current rate (per-packet share proportional to ``rtt^2/cwnd``)
  and negative feedback proportionally to each flow's rate (share
  proportional to ``rtt``), with a small shuffling term so that flows
  converge to fairness even when the aggregate feedback is zero.

The sender simply adds the echoed per-packet feedback to its window.

One known limitation the paper calls out (§2, §5.3): XCP must be told the
outgoing link bandwidth.  For trace-driven cellular links we supply the
long-term average rate, exactly as the authors did.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.netsim.packet import DATA_PACKET_BYTES, AckInfo, Packet
from repro.netsim.queue import QueueDiscipline
from repro.protocols.base import CongestionControl

#: Efficiency-controller gains from the XCP paper (stability-proved values).
XCP_ALPHA = 0.4
XCP_BETA = 0.226

#: Fraction of traffic shuffled between flows each interval for fairness.
XCP_GAMMA = 0.1


class XCPRouterQueue(QueueDiscipline):
    """DropTail queue augmented with the XCP router computation.

    The router recomputes its feedback scale factors lazily whenever the
    simulation clock (passed to ``enqueue``/``dequeue``) crosses a control
    interval boundary, so it needs no direct access to the event scheduler.
    """

    def __init__(
        self,
        capacity_packets: int = 1000,
        link_rate_bps: float = 15e6,
        control_interval: float = 0.1,
    ):
        super().__init__()
        if capacity_packets <= 0:
            raise ValueError("capacity must be positive")
        if link_rate_bps <= 0:
            raise ValueError("link_rate_bps must be positive")
        if control_interval <= 0:
            raise ValueError("control_interval must be positive")
        self.capacity_packets = capacity_packets
        self.capacity_pps = link_rate_bps / (DATA_PACKET_BYTES * 8)
        self.control_interval = control_interval
        self._queue: deque[Packet] = deque()
        self._bytes = 0

        # Per-interval measurement state.
        self._interval_end = control_interval
        self._arrived_packets = 0
        self._sum_rtt_sq_over_cwnd = 0.0
        self._sum_rtt = 0.0
        self._min_queue_len = 0

        # Scale factors computed from the previous interval's measurements.
        self._xi_pos = 0.0
        self._xi_neg = 0.0
        self.last_aggregate_feedback = 0.0

    # -- controllers -----------------------------------------------------------
    def _maybe_advance_interval(self, now: float) -> None:
        while now >= self._interval_end:
            self._run_controllers()
            self._interval_end += self.control_interval

    def _run_controllers(self) -> None:
        d = self.control_interval
        input_rate_pps = self._arrived_packets / d
        spare = self.capacity_pps - input_rate_pps
        persistent_queue = self._min_queue_len
        phi = XCP_ALPHA * d * spare - XCP_BETA * persistent_queue
        self.last_aggregate_feedback = phi

        shuffled = max(0.0, XCP_GAMMA * self._arrived_packets - abs(phi))
        positive = shuffled + max(phi, 0.0)
        negative = shuffled + max(-phi, 0.0)

        self._xi_pos = positive / self._sum_rtt_sq_over_cwnd if self._sum_rtt_sq_over_cwnd > 0 else 0.0
        self._xi_neg = negative / self._sum_rtt if self._sum_rtt > 0 else 0.0

        # Reset measurement state for the next interval.
        self._arrived_packets = 0
        self._sum_rtt_sq_over_cwnd = 0.0
        self._sum_rtt = 0.0
        self._min_queue_len = len(self._queue)

    def _stamp_feedback(self, packet: Packet) -> None:
        rtt = packet.xcp_rtt if packet.xcp_rtt > 0 else self.control_interval
        cwnd = max(packet.xcp_cwnd, 1.0)
        positive = self._xi_pos * rtt * rtt / cwnd
        negative = self._xi_neg * rtt
        feedback = positive - negative
        if packet.xcp_demand > 0:
            feedback = min(feedback, packet.xcp_demand)
        packet.xcp_feedback = feedback

    # -- QueueDiscipline interface ----------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> bool:
        self._maybe_advance_interval(now)
        if len(self._queue) >= self.capacity_packets:
            self.drops += 1
            return False
        # Measure the arriving traffic for the efficiency/fairness controllers.
        self._arrived_packets += 1
        rtt = packet.xcp_rtt if packet.xcp_rtt > 0 else self.control_interval
        cwnd = max(packet.xcp_cwnd, 1.0)
        self._sum_rtt_sq_over_cwnd += rtt * rtt / cwnd
        self._sum_rtt += rtt
        self._stamp_feedback(packet)

        packet.enqueue_time = now
        self._queue.append(packet)
        self._bytes += packet.size_bytes
        self._min_queue_len = min(self._min_queue_len, len(self._queue))
        self.enqueues += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        self._maybe_advance_interval(now)
        self._min_queue_len = min(self._min_queue_len, len(self._queue))
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size_bytes
        self.dequeues += 1
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    def bytes_queued(self) -> int:
        return self._bytes


class XCP(CongestionControl):
    """XCP endpoint: applies the router's per-packet feedback to its window."""

    name = "xcp"

    def __init__(self, initial_window: float = 2.0):
        super().__init__(initial_window=initial_window)
        self.rtt_estimate = 0.0

    def on_flow_start(self, now: float) -> None:
        self.rtt_estimate = 0.0

    def on_packet_sent(self, packet: Packet, now: float) -> None:
        # Fill in the XCP congestion header.
        packet.xcp_cwnd = self.cwnd
        packet.xcp_rtt = self.rtt_estimate
        # Demand: ask for as much as the router will give (no sender cap).
        packet.xcp_demand = float("inf")

    def on_ack(self, ack: AckInfo) -> None:
        if ack.rtt is not None:
            if self.rtt_estimate <= 0:
                self.rtt_estimate = ack.rtt
            else:
                self.rtt_estimate = 0.875 * self.rtt_estimate + 0.125 * ack.rtt
        if ack.newly_acked_bytes <= 0:
            return
        self.cwnd = max(1.0, self.cwnd + ack.xcp_feedback)

    def on_loss(self, now: float) -> None:
        # XCP rarely loses packets; fall back to a conservative halving.
        self.cwnd = max(1.0, self.cwnd / 2.0)

    def on_timeout(self, now: float) -> None:
        self.cwnd = self._initial_window
