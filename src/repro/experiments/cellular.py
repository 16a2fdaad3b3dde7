"""Figures 7, 8 and 9: trace-driven cellular (LTE) downlink experiments (§5.3).

The bottleneck is a :class:`~repro.netsim.link.TraceDrivenLink` replaying a
synthetic LTE-like delivery trace (see :mod:`repro.traces.cellular`), with a
50 ms baseline RTT and a 1000-packet tail-drop buffer.  Senders alternate
between exponentially distributed transfers (mean 100 kB) and exponentially
distributed pauses (mean 0.5 s).  These scenarios probe "model mismatch": the
general-purpose RemyCCs were designed for 10-20 Mbps fixed-rate links, not a
0-50 Mbps time-varying one.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Optional, Sequence

from repro.experiments.base import (
    ExperimentResult,
    SchemeSpec,
    run_cells,
    standard_schemes,
)
from repro.runner import ExecutionBackend
from repro.scenarios import get_scenario

#: Figure → (registry cell, carrier label).  The cell pins everything else
#: that tells the three figures apart: sender count, trace kind, trace seed
#: and base seed.
CELLULAR_FIGURES = {
    7: ("fig7-lte4", "Verizon"),
    8: ("fig8-lte8", "Verizon"),
    9: ("fig9-att4", "AT&T"),
}


def run_cellular_figure(
    figure: int,
    n_flows: Optional[int] = None,
    n_runs: int = 2,
    duration: float = 30.0,
    schemes: Optional[Sequence[SchemeSpec]] = None,
    trace_seed: Optional[int] = None,
    base_seed: Optional[int] = None,
    backend: Optional[ExecutionBackend] = None,
) -> ExperimentResult:
    """One of Figures 7-9: an LTE downlink trace shared by ``n_flows`` senders.

    ``n_flows``, ``trace_seed`` and ``base_seed`` default to the figure's
    registry cell (Figure 7: Verizon, n = 4; Figure 8: Verizon, n = 8;
    Figure 9: AT&T, n = 4).
    """
    cell_name, carrier = CELLULAR_FIGURES[figure]
    cell = get_scenario(cell_name)
    if n_flows is None:
        n_flows = cell.network.n_flows
    # The trace is re-described at the harness's duration so it covers the
    # whole run without cycling.
    cell = cell.override(
        n_flows=n_flows,
        trace=replace(
            cell.trace,
            duration_seconds=duration,
            seed=cell.trace.seed if trace_seed is None else trace_seed,
        ),
    )
    schemes = list(schemes) if schemes is not None else standard_schemes()
    [runs] = run_cells(
        [cell], schemes, n_runs=n_runs, duration=duration, base_seed=base_seed, backend=backend
    )
    return ExperimentResult.from_runs(
        f"Figure {figure}: {carrier} LTE trace, n={n_flows}", schemes, runs
    )


run_figure7 = partial(run_cellular_figure, 7)
run_figure8 = partial(run_cellular_figure, 8)
run_figure9 = partial(run_cellular_figure, 9)
