"""Data Center TCP (Alizadeh et al., 2010).

DCTCP reacts to the *extent* of congestion rather than its presence: the
switch marks packets with ECN whenever the instantaneous queue exceeds a
threshold K (see ``red-dctcp`` in :func:`repro.netsim.queue.build_queue`);
the sender keeps an EWMA ``alpha`` of the fraction of marked packets per RTT
and cuts its window by ``alpha / 2`` once per RTT.  Otherwise it behaves like
Reno (slow start, additive increase, halving on loss).
"""

from __future__ import annotations

from repro.netsim.packet import AckInfo
from repro.protocols.base import CongestionControl


class DCTCP(CongestionControl):
    """DCTCP: ECN-proportional window reduction."""

    name = "dctcp"
    uses_ecn = True

    #: EWMA gain for the marked fraction (the DCTCP paper's g = 1/16).
    G = 1.0 / 16.0

    def __init__(self, initial_window: float = 2.0):
        super().__init__(initial_window=initial_window)
        self.alpha = 1.0
        self.ssthresh = float("inf")
        self._acked_this_window = 0
        self._marked_this_window = 0
        self._window_target = max(1, int(self.cwnd))

    def on_flow_start(self, now: float) -> None:
        self.alpha = 1.0
        self.ssthresh = float("inf")
        self._acked_this_window = 0
        self._marked_this_window = 0
        self._window_target = max(1, int(self.cwnd))

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def _finish_observation_window(self) -> None:
        """Once per RTT: fold the marked fraction into alpha and react."""
        if self._acked_this_window == 0:
            return
        fraction = self._marked_this_window / self._acked_this_window
        self.alpha = (1.0 - self.G) * self.alpha + self.G * fraction
        if self._marked_this_window > 0:
            self.cwnd = max(2.0, self.cwnd * (1.0 - self.alpha / 2.0))
            self.ssthresh = self.cwnd
        self._acked_this_window = 0
        self._marked_this_window = 0
        # The next observation window spans roughly the *current* window's
        # worth of ACKs (one RTT); fixing the target when the window opens
        # keeps the estimate updating even while the window is still growing.
        self._window_target = max(1, int(self.cwnd))

    def on_ack(self, ack: AckInfo) -> None:
        if ack.newly_acked_bytes <= 0:
            return
        self._acked_this_window += 1
        if ack.ecn_echo:
            self._marked_this_window += 1

        # The observation window is one RTT, approximated as a fixed number
        # of ACKs chosen when the window opened.
        if self._acked_this_window >= self._window_target:
            self._finish_observation_window()

        if self.in_slow_start:
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / max(self.cwnd, 1.0)

    def on_loss(self, now: float) -> None:
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = self.ssthresh

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = self._initial_window
