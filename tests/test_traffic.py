"""Tests for distributions, flow-size models and on/off workloads."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.traffic.distributions import (
    ConstantDistribution,
    ExponentialDistribution,
    ParetoDistribution,
    UniformDistribution,
)
from repro.traffic.flowsize import (
    EVALUATION_EXTRA_BYTES,
    ICSI_PARETO_ALPHA,
    ICSI_PARETO_XM,
    icsi_flow_length_distribution,
)
from repro.traffic.incast import IncastWorkload
from repro.netsim.sender import AlwaysOnWorkload, FlowDemand
from repro.traffic.onoff import ByteFlowWorkload, FixedOnPeriodWorkload, TimedFlowWorkload


class TestDistributions:
    def test_constant(self):
        dist = ConstantDistribution(5.0)
        assert dist.sample(random.Random(0)) == 5.0
        assert dist.mean() == 5.0

    def test_uniform_bounds_and_mean(self):
        dist = UniformDistribution(1.0, 3.0)
        rng = random.Random(0)
        samples = [dist.sample(rng) for _ in range(500)]
        assert all(1.0 <= s <= 3.0 for s in samples)
        assert statistics.fmean(samples) == pytest.approx(2.0, abs=0.15)
        assert dist.mean() == 2.0

    def test_exponential_mean(self):
        dist = ExponentialDistribution(4.0)
        rng = random.Random(1)
        samples = [dist.sample(rng) for _ in range(4000)]
        assert statistics.fmean(samples) == pytest.approx(4.0, rel=0.1)

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            ExponentialDistribution(0)

    def test_pareto_minimum_and_heavy_tail(self):
        dist = ParetoDistribution(xm=100, alpha=0.5, shift=40)
        rng = random.Random(2)
        samples = [dist.sample(rng) for _ in range(2000)]
        assert min(samples) >= 140.0
        # Heavy tail: some samples should be far above the scale parameter.
        assert max(samples) > 100 * 100

    def test_pareto_truncation(self):
        dist = ParetoDistribution(xm=100, alpha=0.5, maximum=1e6)
        rng = random.Random(3)
        assert all(dist.sample(rng) <= 1e6 for _ in range(1000))
        assert math.isfinite(dist.mean())

    def test_pareto_infinite_mean_without_truncation(self):
        assert ParetoDistribution(xm=100, alpha=0.5).mean() == float("inf")

    def test_pareto_finite_mean_for_large_alpha(self):
        dist = ParetoDistribution(xm=100, alpha=2.0)
        assert dist.mean() == pytest.approx(200.0)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_pareto_samples_never_below_floor(self, seed):
        dist = ParetoDistribution(xm=ICSI_PARETO_XM, alpha=ICSI_PARETO_ALPHA, shift=40.0)
        assert dist.sample(random.Random(seed)) >= ICSI_PARETO_XM + 40.0


class TestFlowSizeModel:
    def test_matches_figure3_parameters(self):
        dist = icsi_flow_length_distribution(add_evaluation_bytes=False)
        assert dist.xm == ICSI_PARETO_XM
        assert dist.alpha == ICSI_PARETO_ALPHA

    def test_evaluation_adds_16k(self):
        dist = icsi_flow_length_distribution(add_evaluation_bytes=True)
        rng = random.Random(0)
        assert dist.sample(rng) >= EVALUATION_EXTRA_BYTES


class TestWorkloads:
    def test_byte_workload_generates_byte_demands(self, rng):
        workload = ByteFlowWorkload.exponential(100e3, 0.5)
        demand = workload.next_flow(rng)
        assert demand.size_bytes is not None and demand.size_bytes >= 1500
        assert demand.duration is None
        assert workload.next_off_duration(rng) >= 0

    def test_timed_workload_generates_durations(self, rng):
        workload = TimedFlowWorkload.exponential(5.0, 5.0)
        demand = workload.next_flow(rng)
        assert demand.duration is not None and demand.duration > 0
        assert demand.size_bytes is None

    def test_start_on_flag(self, rng):
        assert ByteFlowWorkload.exponential(1e4, 0.5, start_on=True).first_on_delay(rng) == 0.0
        assert ByteFlowWorkload.exponential(1e4, 0.5).first_on_delay(rng) > 0.0

    def test_zero_off_time_means_back_to_back_flows(self, rng):
        workload = ByteFlowWorkload.exponential(1e4, 0.0)
        assert workload.next_off_duration(rng) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ByteFlowWorkload.exponential(1e4, -1.0)
        with pytest.raises(ValueError):
            TimedFlowWorkload.exponential(0.0, 5.0)

    def test_incast_synchronises_flow_starts(self, rng):
        workload = IncastWorkload.exponential(1e6, epoch_seconds=0.1, jitter_seconds=0.002)
        delays = [workload.first_on_delay(random.Random(i)) for i in range(20)]
        assert all(0.1 <= d <= 0.102 for d in delays)
        demand = workload.next_flow(rng)
        assert demand.size_bytes >= 1500

    def test_incast_validation(self):
        with pytest.raises(ValueError):
            IncastWorkload.exponential(1e6, epoch_seconds=0)


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: FlowDemand(duration=NAN),
        lambda: AlwaysOnWorkload(NAN),
        lambda: FixedOnPeriodWorkload(NAN, 1.0),
        lambda: FixedOnPeriodWorkload(0.0, NAN),
        lambda: TimedFlowWorkload.exponential(mean_on_seconds=NAN, mean_off_seconds=1.0),
        lambda: TimedFlowWorkload.exponential(mean_on_seconds=1.0, mean_off_seconds=NAN),
        lambda: ExponentialDistribution(NAN),
        lambda: ConstantDistribution(NAN),
        lambda: UniformDistribution(NAN, 1.0),
        lambda: UniformDistribution(0.0, NAN),
    ],
    ids=[
        "flow-demand-duration",
        "always-on-start-delay",
        "fixed-on-period-start",
        "fixed-on-period-duration",
        "timed-flow-mean-on",
        "timed-flow-mean-off",
        "exponential",
        "constant",
        "uniform-low",
        "uniform-high",
    ],
)
def test_a_nan_parameter_is_rejected_at_construction(build):
    with pytest.raises(ValueError, match="nan"):
        build()


def test_an_infinite_duration_is_still_the_always_on_demand():
    assert FlowDemand(duration=math.inf).duration == math.inf
