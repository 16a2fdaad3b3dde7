"""Unit tests for the end-to-end congestion-control baselines."""

import pytest

from repro.netsim.packet import AckInfo
from repro.protocols import PROTOCOLS
from repro.protocols.aimd import AIMD
from repro.protocols.bbr import BBR
from repro.protocols.compound import CompoundTCP
from repro.protocols.constant_rate import ConstantRate
from repro.protocols.cubic import Cubic
from repro.protocols.dctcp import DCTCP
from repro.protocols.newreno import NewReno
from repro.protocols.vegas import Vegas


def make_ack(now=1.0, rtt=0.1, newly_acked=1500, ecn=False, in_flight=0):
    return AckInfo(
        now=now,
        newly_acked_bytes=newly_acked,
        rtt=rtt,
        echo_sent_time=now - rtt,
        ecn_echo=ecn,
        in_flight=in_flight,
    )


def feed_acks(cc, count, rtt=0.1, start=1.0, spacing=0.01, ecn=False):
    now = start
    for _ in range(count):
        cc.on_ack(make_ack(now=now, rtt=rtt, ecn=ecn))
        now += spacing
    return cc


class TestRegistry:
    def test_registry_contains_all_protocols(self):
        expected = {"aimd", "constant", "newreno", "vegas", "cubic", "bbr", "compound", "dctcp", "xcp", "remy"}
        assert expected == set(PROTOCOLS)


class TestNewReno:
    def test_slow_start_doubles_per_rtt(self):
        cc = NewReno(initial_window=2)
        feed_acks(cc, 10)
        assert cc.cwnd == pytest.approx(12.0)

    def test_congestion_avoidance_is_linear(self):
        cc = NewReno(initial_window=10, initial_ssthresh=10)
        before = cc.cwnd
        feed_acks(cc, 10)
        # Roughly +1 packet per window's worth of ACKs.
        assert before < cc.cwnd < before + 1.5

    def test_loss_halves_window(self):
        cc = NewReno(initial_window=2)
        feed_acks(cc, 30)
        before = cc.cwnd
        cc.on_loss(now=2.0)
        assert cc.cwnd == pytest.approx(before / 2)

    def test_timeout_resets_to_initial_window(self):
        cc = NewReno(initial_window=4)
        feed_acks(cc, 30)
        cc.on_timeout(now=2.0)
        assert cc.cwnd == 4.0

    def test_reset_restores_slow_start(self):
        cc = NewReno()
        feed_acks(cc, 30)
        cc.on_loss(2.0)
        cc.reset(3.0)
        assert cc.in_slow_start

    def test_duplicate_acks_do_not_grow_window(self):
        cc = NewReno(initial_window=2)
        before = cc.cwnd
        cc.on_ack(make_ack(newly_acked=0))
        assert cc.cwnd == before


class TestVegas:
    def test_grows_when_rtt_at_baseline(self):
        cc = Vegas(initial_window=2)
        feed_acks(cc, 20, rtt=0.1)
        assert cc.cwnd > 2

    def test_backs_off_when_rtt_inflates(self):
        cc = Vegas(initial_window=2)
        feed_acks(cc, 20, rtt=0.1)
        grown = cc.cwnd
        # Now the RTT doubles: the backlog estimate exceeds beta, so Vegas shrinks.
        feed_acks(cc, 40, rtt=0.2, start=2.0)
        assert cc.cwnd < grown + 1

    def test_holds_within_alpha_beta_band(self):
        cc = Vegas(alpha=1, beta=3, initial_window=20)
        cc.ssthresh = 1  # force congestion avoidance
        cc.base_rtt = 0.1
        # rtt such that diff = cwnd*(1 - base/rtt) ~ 2 packets: inside [1, 3].
        rtt = 0.1 * 20 / 18
        before = cc.cwnd
        cc.on_ack(make_ack(rtt=rtt))
        assert cc.cwnd == pytest.approx(before, abs=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Vegas(alpha=3, beta=1)


class TestCubic:
    def test_slow_start_then_cubic_growth(self):
        cc = Cubic(initial_window=2)
        feed_acks(cc, 10)
        assert cc.cwnd > 10

    def test_loss_reduces_by_beta(self):
        cc = Cubic(initial_window=10)
        feed_acks(cc, 50)
        before = cc.cwnd
        cc.on_loss(now=2.0)
        assert cc.cwnd == pytest.approx(before * 0.7, rel=1e-6)

    def test_growth_after_loss_plateaus_near_wmax(self):
        cc = Cubic(initial_window=10)
        feed_acks(cc, 100)
        w_max = cc.cwnd
        cc.on_loss(now=2.0)
        # Shortly after the loss the window stays below the previous maximum.
        feed_acks(cc, 30, start=2.1)
        assert cc.cwnd < w_max * 1.1

    def test_cubic_growth_independent_of_rtt(self):
        # Same wall-clock time, different RTT: window targets should match.
        def grown(rtt):
            cc = Cubic(initial_window=20)
            cc.ssthresh = 1
            cc.w_max = 40
            now = 0.0
            for _ in range(40):
                cc.on_ack(make_ack(now=now, rtt=rtt))
                now += 0.05
            return cc.cwnd

        assert grown(0.05) == pytest.approx(grown(0.2), rel=0.25)


class TestCompound:
    def test_window_is_sum_of_components(self):
        cc = CompoundTCP(initial_window=4)
        feed_acks(cc, 20, rtt=0.1)
        assert cc.cwnd == pytest.approx(max(2.0, cc.cwnd_loss + cc.dwnd))

    def test_delay_window_collapses_under_congestion(self):
        cc = CompoundTCP(initial_window=4)
        feed_acks(cc, 40, rtt=0.1)
        cc.ssthresh = 1  # leave slow start
        feed_acks(cc, 40, rtt=0.1, start=2.0)
        grown_dwnd = cc.dwnd
        feed_acks(cc, 40, rtt=0.5, start=4.0)
        assert cc.dwnd <= grown_dwnd

    def test_loss_behaves_like_reno_on_loss_window(self):
        cc = CompoundTCP(initial_window=4)
        feed_acks(cc, 30)
        before_loss_window = cc.cwnd_loss
        cc.on_loss(2.0)
        assert cc.cwnd_loss == pytest.approx(max(2.0, before_loss_window / 2))


class TestDCTCP:
    def test_uses_ecn(self):
        assert DCTCP.uses_ecn is True

    def test_no_marks_behaves_like_reno_growth(self):
        cc = DCTCP(initial_window=2)
        feed_acks(cc, 10)
        assert cc.cwnd > 10

    def test_marked_fraction_reduces_window_proportionally(self):
        cc = DCTCP(initial_window=2)
        feed_acks(cc, 30)  # grow first
        cc.ssthresh = 1
        before = cc.cwnd
        feed_acks(cc, int(before) * 2, ecn=True, start=3.0)
        assert cc.cwnd < before

    def test_alpha_decays_without_marks(self):
        cc = DCTCP(initial_window=2)
        assert cc.alpha == 1.0
        cc.ssthresh = 1  # congestion avoidance: short observation windows
        feed_acks(cc, 200, ecn=False)
        assert cc.alpha < 0.5


class TestAIMD:
    def test_additive_increase(self):
        cc = AIMD(increase_per_rtt=1.0, decrease_factor=0.5, initial_window=10, use_slow_start=False)
        feed_acks(cc, 10)
        assert cc.cwnd == pytest.approx(11.0, rel=0.05)

    def test_multiplicative_decrease(self):
        cc = AIMD(initial_window=16, use_slow_start=False)
        cc.on_loss(1.0)
        assert cc.cwnd == 8.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AIMD(increase_per_rtt=0)
        with pytest.raises(ValueError):
            AIMD(decrease_factor=1.5)


class TestConstantRate:
    def test_intersend_matches_rate(self):
        cc = ConstantRate(rate_pps=100)
        assert cc.intersend_time == pytest.approx(0.01)
        assert cc.rate_bps == pytest.approx(100 * 1500 * 8)

    def test_ignores_feedback(self):
        cc = ConstantRate(rate_pps=100)
        window = cc.cwnd
        cc.on_ack(make_ack())
        cc.on_loss(1.0)
        cc.on_timeout(1.0)
        assert cc.cwnd == window

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ConstantRate(rate_pps=0)


class TestBBR:
    """State-machine tests for the rate-based BBR implementation.

    The driver below feeds a constant 150 kB/s delivery rate (ten 1500-byte
    ACKs per 0.1 s round trip), so the model should converge on
    ``btl_bw = 150000 B/s`` and ``rt_prop = 0.1 s`` — a 10-packet BDP.
    """

    RATE_BPS = 150000.0  # bytes/sec the constant-rate driver delivers
    BDP = 10.0  # packets: RATE_BPS * 0.1 s / 1500 B

    def _drive(self, cc, start, count, rtt=0.1, in_flight=30.0):
        now = start
        for _ in range(count):
            cc.on_ack(make_ack(now=now, rtt=rtt, in_flight=in_flight))
            now += 0.01
        return now

    def _probe_bw_cc(self):
        """Return (cc, now) with the flow driven into PROBE_BW."""
        cc = BBR()
        # Keep in-flight above the BDP so DRAIN is observable as a state.
        now = self._drive(cc, start=1.0, count=50, in_flight=30.0)
        assert cc.state == "drain"
        cc.on_ack(make_ack(now=now, rtt=0.1, in_flight=5.0))
        assert cc.state == "probe_bw"
        return cc, now

    def test_registered(self):
        assert PROTOCOLS["bbr"] is BBR
        assert BBR().name == "bbr"

    def test_rejects_nonpositive_mss(self):
        with pytest.raises(ValueError):
            BBR(mss_bytes=0)

    def test_startup_exits_to_drain_when_bandwidth_plateaus(self):
        cc = BBR()
        assert cc.state == "startup"
        self._drive(cc, start=1.0, count=50, in_flight=30.0)
        # Three rounds without 25% bandwidth growth: the pipe is full, and
        # with in-flight still above the BDP the flow must be draining.
        assert cc.filled_pipe
        assert cc.state == "drain"
        assert cc.pacing_gain < 1.0
        assert cc.btl_bw == pytest.approx(self.RATE_BPS, rel=0.01)

    def test_drain_ends_when_in_flight_reaches_bdp(self):
        cc, _ = self._probe_bw_cc()
        assert cc.pacing_gain == pytest.approx(1.25)  # probing phase first

    def test_model_sets_pacing_and_window(self):
        cc, _ = self._probe_bw_cc()
        expected_gap = 1500.0 / (cc.pacing_gain * self.RATE_BPS)
        assert cc.intersend_time == pytest.approx(expected_gap, rel=0.01)
        assert cc.cwnd == pytest.approx(2.0 * self.BDP, rel=0.01)

    def test_probe_bw_cycles_through_gain_phases(self):
        cc, now = self._probe_bw_cc()
        # A full rt_prop in the probing phase moves on to the drain phase.
        cc.on_ack(make_ack(now=now + 0.11, rtt=0.1, in_flight=30.0))
        assert cc.pacing_gain == pytest.approx(0.75)
        # The drain phase ends early once in-flight falls to the BDP.
        cc.on_ack(make_ack(now=now + 0.12, rtt=0.1, in_flight=5.0))
        assert cc.pacing_gain == pytest.approx(1.0)

    def test_probe_rtt_entered_when_min_rtt_estimate_expires(self):
        cc, now = self._probe_bw_cc()
        # No sample below 0.1 s for over MIN_RTT_WINDOW seconds: the filter
        # expires, the current (inflated) sample is adopted, and the flow
        # drops to the window floor to re-observe the propagation delay.
        cc.on_ack(make_ack(now=now + 10.5, rtt=0.15, in_flight=3.0))
        assert cc.state == "probe_rtt"
        assert cc.cwnd == pytest.approx(4.0)
        assert cc.rt_prop == pytest.approx(0.15)
        # After PROBE_RTT_DURATION plus one round at the floor, the flow
        # returns to PROBE_BW at the start of the gain cycle.
        cc.on_ack(make_ack(now=now + 10.8, rtt=0.15, in_flight=3.0))
        assert cc.state == "probe_bw"
        assert cc.pacing_gain == pytest.approx(1.25)
        assert cc.cwnd > 4.0

    def test_fast_retransmit_loss_does_not_change_model(self):
        cc, _ = self._probe_bw_cc()
        before = (cc.cwnd, cc.intersend_time, cc.btl_bw)
        cc.on_loss(now=100.0)
        assert (cc.cwnd, cc.intersend_time, cc.btl_bw) == before

    def test_timeout_restarts_from_startup(self):
        cc, _ = self._probe_bw_cc()
        cc.on_timeout(now=100.0)
        assert cc.state == "startup"
        assert cc.btl_bw == 0.0
        assert not cc.filled_pipe
        assert cc.intersend_time == 0.0


class TestBaseValidation:
    def test_initial_window_must_be_positive(self):
        with pytest.raises(ValueError):
            NewReno(initial_window=0)
