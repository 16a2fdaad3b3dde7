"""Figure 6: convergence of a RemyCC flow when cross traffic departs (§5.2).

A RemyCC flow shares the bottleneck with one competing flow.  Midway through
the run the competing flow stops; the paper's sequence plot shows the RemyCC
flow responding within roughly one RTT by doubling its sending rate to
consume the whole bottleneck.  The harness records the RemyCC flow's
cumulative-acknowledgment trajectory and reports the average rate before and
after the departure.

The registry cell supplies the topology, the RemyCC pair and the seed; the
harness overrides only the departure schedule and runs the one job through
:func:`~repro.experiments.base.run_cells`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.base import run_cells
from repro.runner import ExecutionBackend
from repro.scenarios import get_scenario
from repro.traffic.onoff import FixedOnPeriodWorkload


@dataclass
class ConvergenceResult:
    """Rates of the observed RemyCC flow before and after the competitor departs."""

    departure_time: float
    rate_before_mbps: float
    rate_after_mbps: float
    #: (time, cumulative ack) samples of the observed flow.
    sequence_trace: list[tuple[float, int]]
    link_rate_mbps: float

    @property
    def speedup_after_departure(self) -> float:
        """How much faster the flow sent once it had the link to itself."""
        if self.rate_before_mbps <= 0:
            return float("inf")
        return self.rate_after_mbps / self.rate_before_mbps


def run_figure6(
    duration: float = 30.0,
    departure_time: float = 15.0,
    backend: Optional[ExecutionBackend] = None,
) -> ConvergenceResult:
    """Run the Figure 6 scenario and return the convergence summary."""
    if not 0 < departure_time < duration:
        raise ValueError("departure_time must fall inside the run")
    cell = get_scenario("fig6-convergence").override(
        per_flow_workloads=(
            FixedOnPeriodWorkload(start=0.0, duration=duration),        # the observed flow
            FixedOnPeriodWorkload(start=0.0, duration=departure_time),  # the departing competitor
        ),
    )
    [[[result]]] = run_cells(
        [cell], n_runs=1, duration=duration, trace_flows=(0,), backend=backend
    )
    trace = result.flow_stats[0].sequence_trace

    def rate_between(t0: float, t1: float) -> float:
        points = [(t, seq) for t, seq in trace if t0 <= t <= t1]
        if len(points) < 2:
            return 0.0
        (ta, sa), (tb, sb) = points[0], points[-1]
        if tb <= ta:
            return 0.0
        return (sb - sa) * cell.network.mss_bytes * 8 / (tb - ta) / 1e6

    # Leave a settling margin after the departure and ignore the initial ramp.
    settle = 4 * cell.network.rtt_for_flow(0)
    rate_before = rate_between(duration * 0.2, departure_time)
    rate_after = rate_between(departure_time + settle, duration)
    return ConvergenceResult(
        departure_time=departure_time,
        rate_before_mbps=rate_before,
        rate_after_mbps=rate_after,
        sequence_trace=trace,
        link_rate_mbps=cell.network.link_rate_bps / 1e6,
    )
