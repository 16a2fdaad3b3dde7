"""Figures 4, 5, 7, 8 and 9: the (throughput, queueing delay) clouds (§5.2-5.3).

Each figure fixes one registry cell and sweeps the comparison schemes:

* **Figure 4**: 15 Mbps link, 150 ms RTT, 1000-packet tail-drop buffer,
  n = 8 senders, each alternating between flows of exponentially distributed
  length (mean 100 kB) and exponentially distributed off time (mean 0.5 s).
* **Figure 5**: same link, n = 12 senders, flow lengths drawn from the
  heavy-tailed ICSI distribution of Figure 3, off time mean 0.2 s.
* **Figures 7, 8, 9**: the bottleneck is a
  :class:`~repro.netsim.link.TraceDrivenLink` replaying a synthetic LTE-like
  delivery trace (see :mod:`repro.traces.cellular`) with a 50 ms baseline
  RTT; the Figure 4 workload.  These probe "model mismatch": the
  general-purpose RemyCCs were designed for 10-20 Mbps fixed-rate links, not
  a 0-50 Mbps time-varying one.

Every figure reports, per scheme, the median per-sender throughput and
queueing delay (plus the 1-sigma ellipse available from each scheme's
summary).
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
from repro.runner import ExecutionBackend
from repro.scenarios import get_scenario
from repro.traces import TraceSpec

#: Figure → (registry cell, label).  The cell pins everything that tells the
#: figures apart: topology, trace, sender count, workload and seeds.
CLOUD_FIGURES = {
    4: ("fig4-dumbbell8", "dumbbell, 100 kB flows"),
    5: ("fig5-dumbbell12", "dumbbell, ICSI flow lengths"),
    7: ("fig7-lte4", "Verizon LTE trace"),
    8: ("fig8-lte8", "Verizon LTE trace"),
    9: ("fig9-att4", "AT&T LTE trace"),
}


def run_cloud_figure(
    figure: int,
    *,
    n_runs: int,
    duration: float = 30.0,
    schemes: Optional[Sequence[SchemeSpec]] = None,
    n_flows: Optional[int] = None,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """Run one of Figures 4, 5, 7, 8, 9 and return per-scheme summaries.

    ``schemes`` defaults to :func:`~repro.experiments.base.standard_schemes`
    and ``n_flows`` to the figure's cell.  The paper uses 100-second runs
    repeated at least 128 times; ``n_runs`` and ``duration`` scale that down
    for a pure-Python simulator.
    """
    cell_name, label = CLOUD_FIGURES[figure]
    cell = get_scenario(cell_name)
    if n_flows is not None:
        cell = cell.override(n_flows=n_flows)
    trace = cell.network.forward[0].delivery_trace
    if isinstance(trace, TraceSpec):
        # The trace is re-described at the run's duration so it covers the
        # whole run without cycling.
        cell = cell.override(delivery_trace=replace(trace, duration_seconds=duration))
    schemes = list(schemes) if schemes is not None else standard_schemes()
    [runs] = run_cells([cell], schemes, n_runs=n_runs, duration=duration, backend=backend)
    return ExperimentResult.from_runs(
        f"Figure {figure}: {label}, n={cell.network.n_flows}", schemes, runs
    )
