"""BBR-family congestion control (Cardwell et al., ACM Queue 2016).

BBR abandons loss as the congestion signal: it explicitly estimates the two
path parameters that define the optimal operating point — the bottleneck
bandwidth ``btl_bw`` (windowed max over recent delivery-rate samples) and the
round-trip propagation delay ``rt_prop`` (windowed min over recent RTT
samples) — and paces transmissions at ``pacing_gain * btl_bw`` while capping
the data in flight at ``cwnd_gain`` times the estimated
bandwidth-delay product.

The model-based design makes BBR an interesting counterpoint to the paper's
schemes: like RemyCC it controls the *intersend time* rather than reacting to
losses, but its model is hand-derived rather than learned.  The scheme × path
× AQM study (``tools/run_study.py``) places it on the same throughput/delay
axes as the paper's Figure 4-6 baselines.

State machine (BBRv1):

* **STARTUP** — double the delivery rate each RTT (gain ``2/ln 2``) until
  three consecutive rounds fail to grow the bandwidth estimate by 25%
  ("full pipe");
* **DRAIN** — invert the startup gain to drain the queue the startup
  overshoot built, until in-flight falls to the estimated BDP;
* **PROBE_BW** — cycle pacing gain through ``[1.25, 0.75, 1 × 6]``, one
  phase per ``rt_prop``, probing for more bandwidth then draining the probe;
* **PROBE_RTT** — whenever the ``rt_prop`` estimate goes
  :data:`MIN_RTT_WINDOW` seconds without refresh, drop the window to
  :data:`MIN_CWND` packets for :data:`PROBE_RTT_DURATION` seconds so the
  queue empties and the propagation delay becomes observable again.

Differences from deployed BBR, chosen for this simulator's determinism
contract: the PROBE_BW cycle always starts at the probing phase instead of a
randomized one (no rng draw, reproducible gain schedule), delivery-rate
samples are taken once per estimated round trip from the cumulative
delivered-byte count the harness reports via
:class:`~repro.netsim.packet.AckInfo` (no per-packet delivered stamps), and
loss handling is BBRv1's: fast-retransmit events do not change the model;
only a retransmission timeout resets the connection to STARTUP.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.netsim.packet import DATA_PACKET_BYTES, AckInfo
from repro.protocols.base import CongestionControl

#: STARTUP/DRAIN pacing gain: doubles the sending rate every round trip.
STARTUP_GAIN = 2.0 / math.log(2.0)

#: PROBE_BW pacing-gain cycle: probe above the estimate, drain the probe,
#: then cruise at the estimate for six rounds (BBRv1's 8-phase cycle).
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

#: Window gain outside PROBE_RTT: two BDPs absorbs delayed/stretched ACKs.
CWND_GAIN = 2.0

#: Bandwidth filter length, in estimated round trips.
BW_FILTER_ROUNDS = 10

#: Seconds the rt_prop estimate may go unrefreshed before PROBE_RTT.
MIN_RTT_WINDOW = 10.0

#: Seconds spent at the PROBE_RTT window floor.
PROBE_RTT_DURATION = 0.2

#: Window floor (packets): keeps ACK clocking alive even in PROBE_RTT.
MIN_CWND = 4.0

#: "Full pipe" detection: bandwidth must grow by this factor in a round...
FULL_BW_GROWTH = 1.25

#: ...or, after this many flat rounds, STARTUP concludes the pipe is full.
FULL_BW_ROUNDS = 3


class BBR(CongestionControl):
    """Rate-based congestion control driven by explicit path estimates.

    Parameters
    ----------
    initial_window:
        Window before the first bandwidth estimate exists (packets).

    The byte-rate model becomes the harness's packet-denominated ``cwnd`` /
    ``intersend_time`` knobs through
    :data:`~repro.netsim.packet.DATA_PACKET_BYTES`, the one segment size.
    """

    name = "bbr"

    def __init__(self, initial_window: float = 10.0):
        super().__init__(initial_window=initial_window)
        self.on_flow_start(0.0)

    # ------------------------------------------------------------- lifecycle
    def on_flow_start(self, now: float) -> None:
        self.state = "startup"
        self.pacing_gain = STARTUP_GAIN
        self.cwnd_gain = STARTUP_GAIN
        #: Windowed-max bandwidth filter: (round index, bytes/sec) samples.
        self._bw_samples: list[tuple[int, float]] = []
        self.btl_bw = 0.0
        #: Windowed-min propagation delay estimate and its last refresh time.
        self.rt_prop: Optional[float] = None
        self._rt_prop_stamp = now
        #: Cumulative bytes delivered (sum of newly-acked bytes).
        self.delivered_bytes = 0
        #: Delivery-rate sampling interval: one sample per estimated round.
        self._round_count = 0
        self._round_start_time = now
        self._round_start_delivered = 0
        #: Full-pipe detection state (STARTUP exit).
        self.filled_pipe = False
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        #: PROBE_BW gain-cycle position and the time the phase began.
        self.cycle_index = 0
        self._cycle_stamp = now
        #: PROBE_RTT bookkeeping: entry deadline state.
        self._probe_rtt_done_stamp: Optional[float] = None
        self._probe_rtt_round_done = False
        self._probe_rtt_round_stamp = now

    # -------------------------------------------------------------- the model
    def _estimated_bdp(self) -> float:
        """Estimated bandwidth-delay product in packets (0 before estimates)."""
        if self.btl_bw <= 0.0 or self.rt_prop is None:
            return 0.0
        return self.btl_bw * self.rt_prop / DATA_PACKET_BYTES

    def _update_btl_bw(self, sample_bps: float) -> None:
        """Fold one delivery-rate sample into the windowed-max filter."""
        self._bw_samples.append((self._round_count, sample_bps))
        horizon = self._round_count - BW_FILTER_ROUNDS
        while self._bw_samples and self._bw_samples[0][0] <= horizon:
            self._bw_samples.pop(0)
        self.btl_bw = max(value for _, value in self._bw_samples)

    def _update_round(self, now: float) -> bool:
        """Advance the round counter once per estimated round trip.

        Returns True when a round boundary was crossed; the delivery-rate
        sample for the finished round is folded into the bandwidth filter.
        """
        round_length = self.rt_prop if self.rt_prop is not None else 0.0
        elapsed = now - self._round_start_time
        if elapsed < max(round_length, 1e-9):
            return False
        delivered = self.delivered_bytes - self._round_start_delivered
        if delivered > 0:
            self._update_btl_bw(delivered / elapsed)
        self._round_count += 1
        self._round_start_time = now
        self._round_start_delivered = self.delivered_bytes
        return True

    def _check_full_pipe(self) -> None:
        """STARTUP exit test: three rounds without 25% bandwidth growth."""
        if self.filled_pipe:
            return
        if self.btl_bw >= self._full_bw * FULL_BW_GROWTH:
            self._full_bw = self.btl_bw
            self._full_bw_rounds = 0
            return
        self._full_bw_rounds += 1
        if self._full_bw_rounds >= FULL_BW_ROUNDS:
            self.filled_pipe = True

    # -------------------------------------------------------- state machine
    def _advance_cycle_phase(self, now: float, in_flight_packets: float) -> None:
        """Move through the PROBE_BW gain cycle, one phase per rt_prop.

        The drain phase (gain 0.75) additionally ends as soon as in-flight
        falls to the BDP — holding the deflationary gain longer than needed
        starves the flow.
        """
        round_length = self.rt_prop if self.rt_prop is not None else 0.0
        phase_over = now - self._cycle_stamp > round_length
        if self.pacing_gain < 1.0 and in_flight_packets <= self._estimated_bdp():
            phase_over = True
        if not phase_over:
            return
        self.cycle_index = (self.cycle_index + 1) % len(PROBE_BW_GAINS)
        self._cycle_stamp = now
        self.pacing_gain = PROBE_BW_GAINS[self.cycle_index]

    def _enter_probe_rtt(self, now: float) -> None:
        self.state = "probe_rtt"
        self.pacing_gain = 1.0
        self.cwnd_gain = 1.0
        self._probe_rtt_done_stamp = None

    def _handle_probe_rtt(self, now: float, in_flight_packets: float) -> None:
        """Hold the window at the floor until the queue has had
        :data:`PROBE_RTT_DURATION` seconds (plus a round) to empty."""
        if self._probe_rtt_done_stamp is None:
            # Wait for in-flight to actually fall to the floor before the
            # clock starts — the draining time depends on the old window.
            if in_flight_packets <= MIN_CWND:
                self._probe_rtt_done_stamp = now + PROBE_RTT_DURATION
                self._probe_rtt_round_done = False
                self._probe_rtt_round_stamp = now
            return
        round_length = self.rt_prop if self.rt_prop is not None else 0.0
        if now - self._probe_rtt_round_stamp > round_length:
            self._probe_rtt_round_done = True
        if self._probe_rtt_round_done and now >= self._probe_rtt_done_stamp:
            self._rt_prop_stamp = now
            self._exit_probe_rtt(now)

    def _exit_probe_rtt(self, now: float) -> None:
        if self.filled_pipe:
            self.state = "probe_bw"
            self.cycle_index = 0
            self._cycle_stamp = now
            self.pacing_gain = PROBE_BW_GAINS[self.cycle_index]
            self.cwnd_gain = CWND_GAIN
        else:
            self.state = "startup"
            self.pacing_gain = STARTUP_GAIN
            self.cwnd_gain = STARTUP_GAIN

    # ------------------------------------------------------------- callbacks
    def on_ack(self, ack: AckInfo) -> None:
        now = ack.now
        if ack.newly_acked_bytes > 0:
            self.delivered_bytes += ack.newly_acked_bytes

        # rt_prop: windowed-min filter over RTT samples.  Strictly-lower
        # samples refresh the stamp (equal ones do not — at a standing
        # queue the estimate must be allowed to *expire*, or PROBE_RTT
        # never fires and an inflated rt_prop locks in an inflated BDP).
        # The expiry verdict is taken once, before the refresh, and also
        # drives PROBE_RTT entry below — refreshing first would reset the
        # stamp and the expiry could never be acted upon.
        filter_expired = now - self._rt_prop_stamp > MIN_RTT_WINDOW
        rtt = ack.rtt
        if rtt is not None and rtt > 0:
            if self.rt_prop is None or rtt < self.rt_prop or filter_expired:
                self.rt_prop = rtt
                self._rt_prop_stamp = now

        round_done = self._update_round(now)
        in_flight_packets = float(ack.in_flight)  # AckInfo counts packets

        if self.state == "startup":
            if round_done:
                self._check_full_pipe()
            if self.filled_pipe:
                self.state = "drain"
                self.pacing_gain = 1.0 / STARTUP_GAIN
                self.cwnd_gain = STARTUP_GAIN
        if self.state == "drain":
            if in_flight_packets <= self._estimated_bdp():
                self.state = "probe_bw"
                self.cycle_index = 0
                self._cycle_stamp = now
                self.pacing_gain = PROBE_BW_GAINS[self.cycle_index]
                self.cwnd_gain = CWND_GAIN
        if self.state == "probe_bw":
            self._advance_cycle_phase(now, in_flight_packets)
        # rt_prop expired in any state: the queue may be hiding a shorter
        # path; only a near-empty queue makes propagation delay observable.
        if self.state != "probe_rtt" and filter_expired:
            self._enter_probe_rtt(now)
        if self.state == "probe_rtt":
            self._handle_probe_rtt(now, in_flight_packets)

        self._apply_model()

    def _apply_model(self) -> None:
        """Translate (btl_bw, rt_prop, gains) into the harness's knobs."""
        if self.btl_bw > 0.0:
            self.intersend_time = DATA_PACKET_BYTES / (self.pacing_gain * self.btl_bw)
        else:
            self.intersend_time = 0.0  # no estimate yet: cwnd-limited startup
        if self.state == "probe_rtt":
            self.cwnd = MIN_CWND
            return
        bdp = self._estimated_bdp()
        if bdp > 0.0:
            self.cwnd = max(self.cwnd_gain * bdp, MIN_CWND)
        else:
            self.cwnd = max(self._initial_window, MIN_CWND)

    def on_loss(self, now: float) -> None:
        """Fast-retransmit losses do not change the model (BBRv1)."""

    def on_timeout(self, now: float) -> None:
        """An RTO means the ACK clock died: restart the search from scratch."""
        self.cwnd = max(self._initial_window, MIN_CWND)
        self.intersend_time = 0.0
        self.on_flow_start(now)
