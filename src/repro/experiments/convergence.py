"""Figure 6: convergence of a RemyCC flow when cross traffic departs (§5.2).

A RemyCC flow shares the bottleneck with one competing flow.  Midway through
the run the competing flow stops; the paper's sequence plot shows the RemyCC
flow responding within roughly one RTT by doubling its sending rate to
consume the whole bottleneck.  The harness records the RemyCC flow's
cumulative-acknowledgment trajectory and reports the average rate before and
after the departure.

The registry cell supplies the topology, the RemyCC pair and the seed; the
harness overrides only the departure schedule, and its plan is that one job.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.base import Grid, Plan, Slice
from repro.netsim.packet import DATA_PACKET_BYTES
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


def run_figure6(duration: float = 30.0, departure_time: float = 15.0) -> Plan[ConvergenceResult]:
    """Plan the Figure 6 scenario, folded into the convergence summary."""
    if not 0 < departure_time < duration:
        raise ValueError("departure_time must fall inside the run")
    cell = get_scenario("fig6-convergence").override(
        workloads=(
            FixedOnPeriodWorkload(start=0.0, duration=duration),        # the observed flow
            FixedOnPeriodWorkload(start=0.0, duration=departure_time),  # the departing competitor
        ),
    )

    def fold(grid: Slice) -> ConvergenceResult:
        [[[result]]] = grid
        trace = result.flow_stats[0].sequence_trace

        def rate_between(t0: float, t1: float) -> float:
            points = [(t, seq) for t, seq in trace if t0 <= t <= t1]
            if len(points) < 2:
                return 0.0
            (ta, sa), (tb, sb) = points[0], points[-1]
            if tb <= ta:
                return 0.0
            return (sb - sa) * DATA_PACKET_BYTES * 8 / (tb - ta) / 1e6

        # Leave a settling margin after the departure and ignore the initial ramp.
        settle = 4 * cell.network.rtt_for_flow(0)
        return ConvergenceResult(
            departure_time=departure_time,
            rate_before_mbps=rate_between(duration * 0.2, departure_time),
            rate_after_mbps=rate_between(departure_time + settle, duration),
            sequence_trace=trace,
            link_rate_mbps=cell.network.bottleneck_rate_bps() / 1e6,
        )

    return Plan(Grid((cell,), n_runs=1, duration=duration, trace_flows=(0,)), fold)
