"""Figures 4 and 5: the single-bottleneck ("dumbbell") experiments (§5.2).

* **Figure 4**: 15 Mbps link, 150 ms RTT, 1000-packet tail-drop buffer,
  n = 8 senders, each alternating between flows of exponentially distributed
  length (mean 100 kB) and exponentially distributed off time (mean 0.5 s).
* **Figure 5**: same link, n = 12 senders, flow lengths drawn from the
  heavy-tailed ICSI distribution of Figure 3, off time mean 0.2 s.

Both report, per scheme, the median per-sender throughput and queueing delay
(plus the 1-sigma ellipse available from each scheme's summary).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.experiments.base import (
    ExperimentResult,
    SchemeSpec,
    run_cells,
    standard_schemes,
)
from repro.netsim.network import NetworkSpec
from repro.runner import ExecutionBackend
from repro.scenarios import get_scenario
from repro.traffic.flowsize import icsi_flow_length_distribution
from repro.traffic.onoff import ByteFlowWorkload


def dumbbell_spec(
    n_flows: int,
    link_rate_bps: float = 15e6,
    rtt: float = 0.150,
    buffer_packets: int = 1000,
) -> NetworkSpec:
    """The §5.1 single-bottleneck topology, resolved from the registry cell."""
    return replace(
        get_scenario("fig4-dumbbell8").network,
        link_rate_bps=link_rate_bps,
        rtt=rtt,
        n_flows=n_flows,
        buffer_packets=buffer_packets,
    )


def run_figure4(
    n_flows: int = 8,
    n_runs: int = 4,
    duration: float = 30.0,
    schemes: Optional[Sequence[SchemeSpec]] = None,
    mean_flow_bytes: float = 100e3,
    mean_off_seconds: float = 0.5,
    base_seed: int = 42,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Run the Figure 4 scenario and return per-scheme summaries.

    The paper uses 100-second runs repeated at least 128 times; the defaults
    here are scaled down for a pure-Python simulator but the parameters are
    exposed so paper-scale runs can be requested.
    """
    cell = get_scenario("fig4-dumbbell8").override(
        n_flows=n_flows,
        workload=ByteFlowWorkload.exponential(
            mean_flow_bytes=mean_flow_bytes, mean_off_seconds=mean_off_seconds
        ),
    )
    schemes = list(schemes) if schemes is not None else standard_schemes()
    [runs] = run_cells(
        [cell], schemes, n_runs=n_runs, duration=duration, base_seed=base_seed, backend=backend
    )
    return ExperimentResult.from_runs(
        f"Figure 4: dumbbell, n={n_flows}, {mean_flow_bytes / 1e3:.0f} kB flows", schemes, runs
    )


def run_figure5(
    n_flows: int = 12,
    n_runs: int = 2,
    duration: float = 30.0,
    schemes: Optional[Sequence[SchemeSpec]] = None,
    mean_off_seconds: float = 0.2,
    max_flow_bytes: float = 20e6,
    base_seed: int = 43,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Run the Figure 5 scenario (ICSI heavy-tailed flow lengths, n = 12).

    ``max_flow_bytes`` truncates the Pareto tail; the paper's trace tops out
    at 3.3 GB, which a short scaled-down run could never finish, so a lower
    ceiling keeps the workload comparable to the simulated duration while
    preserving the heavy tail.
    """
    cell = get_scenario("fig5-dumbbell12").override(
        n_flows=n_flows,
        workload=ByteFlowWorkload(
            flow_size=icsi_flow_length_distribution(maximum_bytes=max_flow_bytes),
            mean_off_seconds=mean_off_seconds,
        ),
    )
    schemes = list(schemes) if schemes is not None else standard_schemes()
    [runs] = run_cells(
        [cell], schemes, n_runs=n_runs, duration=duration, base_seed=base_seed, backend=backend
    )
    return ExperimentResult.from_runs(
        f"Figure 5: dumbbell, n={n_flows}, ICSI flow lengths", schemes, runs
    )
