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
from repro.core.objective import Objective, alpha_fairness_utility
from repro.netsim.path import PathSpec
from repro.netsim.stats import FlowStats


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

    @given(
        x=st.floats(min_value=0.01, max_value=100.0),
        y=st.floats(min_value=0.01, max_value=100.0),
        alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotonically_increasing(self, x, y, alpha):
        low, high = sorted((x, y))
        assert alpha_fairness_utility(low, alpha) <= alpha_fairness_utility(high, alpha) + 1e-12


class TestObjective:
    def test_higher_throughput_scores_better(self):
        objective = Objective.proportional(delta=1.0)
        low = objective.score_flow(1e6, 0.1, fair_share_bps=2e6, min_rtt_seconds=0.1)
        high = objective.score_flow(2e6, 0.1, fair_share_bps=2e6, min_rtt_seconds=0.1)
        assert high > low

    def test_higher_delay_scores_worse(self):
        objective = Objective.proportional(delta=1.0)
        fast = objective.score_flow(1e6, 0.1, fair_share_bps=1e6, min_rtt_seconds=0.1)
        slow = objective.score_flow(1e6, 0.3, fair_share_bps=1e6, min_rtt_seconds=0.1)
        assert fast > slow

    def test_delta_weights_delay_penalty(self):
        light = Objective.proportional(delta=0.1)
        heavy = Objective.proportional(delta=10.0)
        args = dict(throughput_bps=1e6, delay_seconds=0.3, fair_share_bps=1e6, min_rtt_seconds=0.1)
        assert light.score_flow(**args) > heavy.score_flow(**args)

    def test_min_potential_delay_ignores_delay(self):
        objective = Objective.min_potential_delay()
        a = objective.score_flow(1e6, 0.1, fair_share_bps=1e6, min_rtt_seconds=0.1)
        b = objective.score_flow(1e6, 10.0, fair_share_bps=1e6, min_rtt_seconds=0.1)
        assert a == pytest.approx(b)

    def test_zero_throughput_is_finite_penalty(self):
        objective = Objective.proportional(delta=1.0)
        score = objective.score_flow(0.0, 0.1, fair_share_bps=1e6, min_rtt_seconds=0.1)
        assert math.isfinite(score)
        assert score < objective.score_flow(1e3, 0.1, fair_share_bps=1e6, min_rtt_seconds=0.1)

    def test_score_stats_floors_the_flow_rtt_at_the_base_rtt(self):
        # One §3.3 per-flow score for the evaluator and Figure 11: the mean
        # RTT, floored at the base RTT, which also stands in when no RTT
        # was sampled.
        objective = Objective.proportional(delta=1.0)
        stats = FlowStats(0, bytes_received=125_000, on_time=1.0, rtt_sum=0.6, rtt_count=2)
        assert objective.score_stats(stats, 2e6, 0.1) == objective.score_flow(1e6, 0.3, 2e6, 0.1)
        assert objective.score_stats(stats, 2e6, 0.5) == objective.score_flow(1e6, 0.5, 2e6, 0.5)
        unsampled = FlowStats(0, bytes_received=125_000, on_time=1.0)
        assert objective.score_stats(unsampled, 2e6, 0.1) == objective.score_flow(1e6, 0.1, 2e6, 0.1)

    def test_describe(self):
        assert "delay" in Objective.min_potential_delay().describe()
        assert "log" in Objective.proportional(0.1).describe()

    def test_invalid_normalisation_inputs(self):
        with pytest.raises(ValueError):
            Objective().score_flow(1.0, 1.0, fair_share_bps=0.0, min_rtt_seconds=1.0)

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
        score_low = objective.score_flow(low, 0.2, fair_share_bps=1e6, min_rtt_seconds=0.1)
        score_high = objective.score_flow(high, 0.2, fair_share_bps=1e6, min_rtt_seconds=0.1)
        assert score_high >= score_low - 1e-9
