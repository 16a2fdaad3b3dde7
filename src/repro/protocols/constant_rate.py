"""Fixed-rate (paced) sender — a simple open-loop baseline and test fixture.

Not a protocol the paper evaluates, but invaluable for validating the
simulator: a constant-rate source below the bottleneck rate should see zero
queueing delay, and one above it should fill the buffer.  It also serves as a
building block for simple cross-traffic in the convergence experiment.
"""

from __future__ import annotations

from repro.netsim.packet import DATA_PACKET_BYTES, AckInfo
from repro.protocols.base import CongestionControl


class ConstantRate(CongestionControl):
    """Open-loop sender pacing packets at a fixed rate (packets/second)."""

    name = "constant"

    def __init__(self, rate_pps: float, window: float = 1e6):
        super().__init__(initial_window=window)
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        self.rate_pps = rate_pps
        self.intersend_time = 1.0 / rate_pps
        self._window_cap = window

    @property
    def rate_bps(self) -> float:
        """Sending rate in bits/second."""
        return self.rate_pps * DATA_PACKET_BYTES * 8

    def reset(self, now: float) -> None:
        super().reset(now)
        self.cwnd = self._window_cap
        self.intersend_time = 1.0 / self.rate_pps

    def on_ack(self, ack: AckInfo) -> None:
        # Open loop: ignore feedback entirely.
        return

    def on_loss(self, now: float) -> None:
        return

    def on_timeout(self, now: float) -> None:
        # Keep the window wide open; a constant-rate source never backs off.
        self.cwnd = self._window_cap
