"""TCP Vegas congestion control (Brakmo & Peterson, 1994).

Vegas is the delay-based scheme of the paper's comparison set.  It estimates
``BaseRTT`` (the RTT in the absence of congestion), computes the difference
between the *expected* rate ``cwnd / BaseRTT`` and the *actual* rate
``cwnd / RTT``, and

* increases the window linearly when ``diff < alpha``,
* decreases it linearly when ``diff > beta``,
* leaves it unchanged in between.

``alpha`` and ``beta`` are expressed in packets of backlog at the bottleneck,
as in the original paper (defaults 1 and 3).
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.packet import AckInfo
from repro.protocols.base import CongestionControl


class Vegas(CongestionControl):
    """Delay-based congestion avoidance."""

    name = "vegas"

    def __init__(self, alpha: float = 1.0, beta: float = 3.0, initial_window: float = 2.0):
        super().__init__(initial_window=initial_window)
        if alpha < 0 or beta < alpha:
            raise ValueError("need 0 <= alpha <= beta")
        self.alpha = alpha
        self.beta = beta
        self.base_rtt: Optional[float] = None
        self.ssthresh = float("inf")

    def on_flow_start(self, now: float) -> None:
        self.base_rtt = None
        self.ssthresh = float("inf")

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def _vegas_diff(self, rtt: float) -> float:
        """Backlog estimate in packets: (expected - actual) * BaseRTT."""
        assert self.base_rtt is not None
        expected = self.cwnd / self.base_rtt
        actual = self.cwnd / rtt
        return (expected - actual) * self.base_rtt

    def on_ack(self, ack: AckInfo) -> None:
        if ack.rtt is None or ack.newly_acked_bytes <= 0:
            return
        rtt = ack.rtt
        if self.base_rtt is None or rtt < self.base_rtt:
            self.base_rtt = rtt

        diff = self._vegas_diff(rtt)

        if self.in_slow_start:
            # Vegas slow start: grow every other RTT and leave slow start as
            # soon as backlog exceeds one packet (gamma = 1).
            if diff > 1.0:
                self.ssthresh = self.cwnd
            else:
                self.cwnd += 0.5
            return

        # Congestion avoidance: adjust once per RTT (approximated by adjusting
        # by 1/cwnd per ACK, which integrates to one packet per RTT).
        if diff < self.alpha:
            self.cwnd += 1.0 / max(self.cwnd, 1.0)
        elif diff > self.beta:
            self.cwnd = max(2.0, self.cwnd - 1.0 / max(self.cwnd, 1.0))
        # else: leave the window unchanged.

    def on_loss(self, now: float) -> None:
        self.ssthresh = max(2.0, self.cwnd * 0.75)
        self.cwnd = self.ssthresh

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = self._initial_window
