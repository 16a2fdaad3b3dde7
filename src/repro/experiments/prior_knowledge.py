"""Figure 11: how helpful is prior knowledge about the network? (§5.7)

Two RemyCCs with different design-time assumptions about the link speed — one
told the speed exactly (15 Mbps, the "1×" table) and one told only that it
lies within a tenfold range (4.7-47 Mbps, "10×") — are compared against
Cubic-over-sfqCoDel while the *actual* link speed sweeps across and beyond
those ranges.  The y-axis of the figure is the per-flow objective
``log(normalized throughput) - log(normalized delay)``; the signature result
is that the 1× table wins at its design point but collapses once its
assumption is violated, while the 10× table is robust across its whole band.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.objective import Objective
from repro.experiments.base import SchemeSpec, remycc_scheme, run_cells
from repro.runner import ExecutionBackend
from repro.scenarios import ProtocolSpec, get_scenario

#: Link speeds swept in the scaled-down default run (the paper sweeps roughly
#: 1-100 Mbps on a log axis; these points cover the same structure: below the
#: 10x range, the 10x band edges, the 1x design point, and above the range).
DEFAULT_LINK_SPEEDS_MBPS = (2.0, 4.7, 8.0, 15.0, 25.0, 47.0, 80.0)


@dataclass
class PriorKnowledgePoint:
    """Objective score of one scheme at one true link speed."""

    scheme: str
    link_speed_mbps: float
    score: float
    mean_throughput_mbps: float
    mean_queue_delay_ms: float


@dataclass
class PriorKnowledgeResult:
    """The Figure 11 sweep: scores per scheme per link speed."""

    points: list[PriorKnowledgePoint] = field(default_factory=list)

    def score_at(self, scheme: str, link_speed_mbps: float) -> float:
        for point in self.points:
            if point.scheme == scheme and abs(point.link_speed_mbps - link_speed_mbps) < 1e-9:
                return point.score
        raise KeyError(f"no point for {scheme} at {link_speed_mbps} Mbps")


def default_schemes() -> list[SchemeSpec]:
    """The three curves of Figure 11."""
    return [
        remycc_scheme("1x", label="RemyCC 1x"),
        remycc_scheme("10x", label="RemyCC 10x"),
        SchemeSpec("Cubic/sfqCoDel", ProtocolSpec("cubic"), queue="sfqcodel"),
    ]


def run_figure11(
    link_speeds_mbps: Sequence[float] = DEFAULT_LINK_SPEEDS_MBPS,
    schemes: Optional[Sequence[SchemeSpec]] = None,
    n_runs: int = 2,
    duration: float = 20.0,
    backend: Optional[ExecutionBackend] = None,
) -> PriorKnowledgeResult:
    """Sweep the true link speed and score every scheme with the §3.3 objective.

    One cell per link speed, all derived from the same registry cell — so the
    speeds (and the schemes) share per-run seeds — and one ``run_cells``
    batch for the whole ``speed × scheme × run`` grid.
    """
    schemes = list(schemes) if schemes is not None else default_schemes()
    objective = Objective.proportional(delta=1.0)
    result = PriorKnowledgeResult()

    # The registry cell pins the senders, their workloads, the RTT and the
    # seed; schemes without router support run over plain tail-drop.
    base_cell = get_scenario("fig11-prior-1x")
    n_flows = base_cell.network.n_flows
    rtt = base_cell.network.rtt_for_flow(0)
    cells = [
        base_cell.override(rate_bps=speed_mbps * 1e6, queue="droptail")
        for speed_mbps in link_speeds_mbps
    ]
    grid = run_cells(cells, schemes, n_runs=n_runs, duration=duration, backend=backend)
    for speed_mbps, cell_runs in zip(link_speeds_mbps, grid):
        fair_share = speed_mbps * 1e6 / n_flows
        for scheme, run_results in zip(schemes, cell_runs):
            scores, tputs, delays = [], [], []
            for run_result in run_results:
                for stats in run_result.flow_stats:
                    score = objective.score_stats(stats, fair_share, rtt)
                    if score is None:
                        continue
                    scores.append(score)
                    tputs.append(stats.throughput_mbps())
                    delays.append(stats.avg_queue_delay_ms())
            result.points.append(
                PriorKnowledgePoint(
                    scheme=scheme.name,
                    link_speed_mbps=speed_mbps,
                    score=statistics.fmean(scores) if scores else float("-inf"),
                    mean_throughput_mbps=statistics.fmean(tputs) if tputs else 0.0,
                    mean_queue_delay_ms=statistics.fmean(delays) if delays else 0.0,
                )
            )
    return result
