"""Unit and property-based tests for design ranges and objective functions."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import (
    TABLES,
    ConfigRange,
    NetConfig,
    ParameterRange,
    general_purpose_range,
)
from repro.core.evaluator import Evaluator, EvaluatorSettings
from repro.core.objective import Objective, alpha_fairness_utility
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.packet import DATA_PACKET_BYTES
from repro.netsim.path import PathSpec
from repro.netsim.stats import FlowStats
from repro.runner import SerialBackend


class TestParameterRange:
    def test_exact_range(self):
        r = ParameterRange.exact(5.0)
        assert r.is_exact
        assert r.sample(random.Random(0)) == 5.0

    def test_sampling_stays_within_bounds(self):
        r = ParameterRange(1.0, 3.0)
        rng = random.Random(1)
        for _ in range(100):
            assert 1.0 <= r.sample(rng) <= 3.0

    def test_sample_int(self):
        r = ParameterRange(1, 16)
        rng = random.Random(2)
        values = {r.sample_int(rng) for _ in range(200)}
        assert min(values) >= 1 and max(values) <= 16
        assert len(values) > 5

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            ParameterRange(3.0, 1.0)


class TestConfigRange:
    def test_sample_produces_valid_netconfig(self):
        rng = random.Random(0)
        config = general_purpose_range().sample(rng)
        assert 10e6 <= config.link_speed_bps <= 20e6
        assert 0.1 <= config.rtt_seconds <= 0.2
        assert 1 <= config.n_senders <= 16

    def test_specimens_are_deterministic(self):
        range_ = general_purpose_range()
        assert range_.specimens(5, seed=3) == range_.specimens(5, seed=3)
        assert range_.specimens(5, seed=3) != range_.specimens(5, seed=4)

    def test_paper_design_ranges(self):
        assert TABLES["1x"][0].link_speed_bps.is_exact
        tenfold = TABLES["10x"][0].link_speed_bps
        assert tenfold.high / tenfold.low == pytest.approx(10.0)
        assert TABLES["datacenter"][0].mean_on_bytes is not None
        assert TABLES["coexist"][0].rtt_seconds.high == 10.0
        # The δ rows share §5.1's range; Figure 11 scores 1x and 10x at δ = 1;
        # the datacenter table maximises -1/throughput (§5.5).
        for delta in (0.1, 1.0, 10.0):
            assert TABLES[f"delta{delta:g}"] == (general_purpose_range(), Objective.proportional(delta))
        for name in ("1x", "10x", "coexist"):
            assert TABLES[name][1] == Objective.proportional(1.0)
        assert TABLES["datacenter"][1] == Objective.min_potential_delay()

    def test_netconfig_validation(self):
        with pytest.raises(ValueError):
            NetConfig(link_speed_bps=0, rtt_seconds=0.1, n_senders=1,
                      mean_on_seconds=1, mean_off_seconds=1)

    def test_netconfig_bdp(self):
        config = NetConfig(
            link_speed_bps=12e6, rtt_seconds=0.1, n_senders=2,
            mean_on_seconds=1, mean_off_seconds=1,
        )
        # The one BDP helper is the topology's: rate × round trip.
        spec = PathSpec.dumbbell(rate_bps=config.link_speed_bps, rtt=config.rtt_seconds)
        assert spec.bandwidth_delay_product_packets() == pytest.approx(100.0)
        assert "Mbps" in config.describe()


class TestAlphaFairness:
    def test_alpha_one_is_log(self):
        assert alpha_fairness_utility(math.e, 1.0) == pytest.approx(1.0)

    def test_alpha_zero_is_identity(self):
        assert alpha_fairness_utility(5.0, 0.0) == pytest.approx(5.0)

    def test_alpha_two_is_negative_inverse(self):
        assert alpha_fairness_utility(4.0, 2.0) == pytest.approx(-0.25)

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError):
            alpha_fairness_utility(-1.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_rejects_zero_input(self, alpha):
        # No scored flow has zero throughput (see Objective.score_stats).
        with pytest.raises(ValueError):
            alpha_fairness_utility(0.0, alpha)

    @given(
        x=st.floats(min_value=0.01, max_value=100.0),
        y=st.floats(min_value=0.01, max_value=100.0),
        alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotonically_increasing(self, x, y, alpha):
        low, high = sorted((x, y))
        assert alpha_fairness_utility(low, alpha) <= alpha_fairness_utility(high, alpha) + 1e-12


def flow(throughput_bps: float, delay_seconds: float, on_time: float = 1.0) -> FlowStats:
    """A flow that delivered ``throughput_bps`` over ``on_time`` at one RTT sample."""
    return FlowStats(
        0,
        bytes_received=round(throughput_bps * on_time / 8),
        on_time=on_time,
        rtt_sum=delay_seconds,
        rtt_count=1,
    )


def score(objective, throughput_bps, delay_seconds, fair_share_bps, base_rtt_seconds):
    stats = flow(throughput_bps, delay_seconds)
    return objective.score_stats(stats, fair_share_bps, base_rtt_seconds)


class TestObjective:
    def test_higher_throughput_scores_better(self):
        objective = Objective.proportional(delta=1.0)
        low = score(objective, 1e6, 0.1, fair_share_bps=2e6, base_rtt_seconds=0.1)
        high = score(objective, 2e6, 0.1, fair_share_bps=2e6, base_rtt_seconds=0.1)
        assert high > low

    def test_higher_delay_scores_worse(self):
        objective = Objective.proportional(delta=1.0)
        fast = score(objective, 1e6, 0.1, fair_share_bps=1e6, base_rtt_seconds=0.1)
        slow = score(objective, 1e6, 0.3, fair_share_bps=1e6, base_rtt_seconds=0.1)
        assert fast > slow

    def test_delta_weights_delay_penalty(self):
        light = Objective.proportional(delta=0.1)
        heavy = Objective.proportional(delta=10.0)
        args = dict(throughput_bps=1e6, delay_seconds=0.3, fair_share_bps=1e6, base_rtt_seconds=0.1)
        assert score(light, **args) > score(heavy, **args)

    def test_min_potential_delay_ignores_delay(self):
        objective = Objective.min_potential_delay()
        a = score(objective, 1e6, 0.1, fair_share_bps=1e6, base_rtt_seconds=0.1)
        b = score(objective, 1e6, 10.0, fair_share_bps=1e6, base_rtt_seconds=0.1)
        assert a == pytest.approx(b)

    @pytest.mark.parametrize(
        "objective", [Objective.proportional(1.0), Objective.min_potential_delay()],
        ids=["alpha1", "alpha2"],
    )
    def test_nothing_delivered_scores_one_mss(self, objective):
        # No RTT was sampled, so the delay term is U_beta(1) = 0 and the
        # score is the throughput term of one MSS over 2 s alone.
        nothing = objective.score_stats(FlowStats(0, on_time=2.0), 1e6, 0.1)
        assert math.isfinite(nothing)
        assert nothing == alpha_fairness_utility(DATA_PACKET_BYTES * 8 / 2.0 / 1e6, objective.alpha)
        one_packet = FlowStats(0, bytes_received=DATA_PACKET_BYTES, packets_received=1, on_time=2.0)
        assert nothing == objective.score_stats(one_packet, 1e6, 0.1)
        # Waiting longer for nothing costs more.
        assert objective.score_stats(FlowStats(0, on_time=4.0), 1e6, 0.1) < nothing

    def test_a_flow_on_for_less_than_its_base_rtt_is_not_scored(self):
        objective = Objective.proportional(delta=1.0)
        for on_time in (0.0, 0.05, 0.0999):
            for delivered in (0, DATA_PACKET_BYTES):
                stats = FlowStats(0, bytes_received=delivered, on_time=on_time)
                assert objective.score_stats(stats, 1e6, 0.1) is None
        assert objective.score_stats(FlowStats(0, on_time=0.1), 1e6, 0.1) is not None

    def test_score_stats_floors_the_flow_rtt_at_the_base_rtt(self):
        # One §3.3 per-flow score for the evaluator and Figure 11: the mean
        # RTT, floored at the base RTT, which also stands in when no RTT
        # was sampled.
        objective = Objective.proportional(delta=1.0)
        stats = FlowStats(0, bytes_received=125_000, on_time=1.0, rtt_sum=0.6, rtt_count=2)
        half = 125_000 * 8 / 1.0 / 2e6
        assert objective.score_stats(stats, 2e6, 0.1) == math.log(half) - math.log(0.3 / 0.1)
        assert objective.score_stats(stats, 2e6, 0.5) == math.log(half) - math.log(0.5 / 0.5)
        unsampled = FlowStats(0, bytes_received=125_000, on_time=1.0)
        assert objective.score_stats(unsampled, 2e6, 0.1) == math.log(half) - math.log(1.0)

    def test_describe(self):
        assert "delay" in Objective.min_potential_delay().describe()
        assert "log" in Objective.proportional(0.1).describe()

    def test_invalid_normalisation_inputs(self):
        with pytest.raises(ValueError):
            score(Objective(), 1.0, 1.0, fair_share_bps=0.0, base_rtt_seconds=1.0)

    @given(
        tput_a=st.floats(min_value=1e3, max_value=1e9),
        tput_b=st.floats(min_value=1e3, max_value=1e9),
        delta=st.sampled_from([0.0, 0.1, 1.0, 10.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_pareto_preference_for_throughput(self, tput_a, tput_b, delta):
        """The metric always prefers more throughput, all else equal (§3.3)."""
        objective = Objective.proportional(delta=delta)
        low, high = sorted((tput_a, tput_b))
        score_low = score(objective, low, 0.2, fair_share_bps=1e6, base_rtt_seconds=0.1)
        score_high = score(objective, high, 0.2, fair_share_bps=1e6, base_rtt_seconds=0.1)
        assert score_high >= score_low - 1e-9


class AddsAFlow(SerialBackend):
    """Runs every job, then appends one more flow, which delivered nothing,
    to each result: a sender that switched on ``on_time`` before the end."""

    def __init__(self, on_time: float):
        self.on_time = on_time

    def run_batch(self, jobs):
        results = super().run_batch(jobs)
        for job_result in results:
            job_result.result.flow_stats.append(FlowStats(99, on_time=self.on_time))
        return results


class TestEvaluatorScoresServableFlows:
    RTT = 0.08

    def score(self, backend=None):
        evaluator = Evaluator(
            ConfigRange(
                link_speed_bps=ParameterRange.exact(4e6),
                rtt_seconds=ParameterRange.exact(self.RTT),
                n_senders=ParameterRange.exact(2),
                mean_on_seconds=ParameterRange.exact(2.0),
                mean_off_seconds=ParameterRange.exact(1.0),
            ),
            Objective.proportional(1.0),
            EvaluatorSettings(num_specimens=2, sim_duration=1.0, seed=3),
            backend=backend,
        )
        return evaluator.evaluate(WhiskerTree(), training=False)

    def test_an_unservable_flow_leaves_the_score_bit_identical(self):
        plain = self.score()
        added = self.score(AddsAFlow(on_time=self.RTT * 0.99))
        assert added == plain  # bit for bit, every specimen's score too
        # The same flow on for one base RTT is scored in both specimens, and
        # it moves each one's score.
        served = self.score(AddsAFlow(on_time=self.RTT))
        assert len(served.specimen_scores) == 2
        for served_score, plain_score in zip(served.specimen_scores, plain.specimen_scores):
            assert served_score != plain_score
        assert served.score != plain.score
