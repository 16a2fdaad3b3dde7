"""Figure 10: RTT fairness of RemyCCs versus Cubic-over-sfqCoDel (§5.4).

Four senders share a 10 Mbps tail-drop bottleneck; their round-trip times are
50, 100, 150 and 200 ms.  Flow lengths follow the ICSI distribution of
Figure 3 with a mean off time of 0.2 s.  The figure reports each flow's
*normalised throughput share* as a function of its RTT: a perfectly RTT-fair
scheme would give every flow 0.25.  The paper finds that the RemyCCs are
RTT-unfair, but less so than Cubic-over-sfqCoDel.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.fairness import jain_index, normalized_shares
from repro.experiments.base import SchemeSpec, remycc_scheme, run_cells
from repro.runner import ExecutionBackend
from repro.scenarios import FIGURE10_RTTS, ProtocolSpec, get_scenario

__all__ = ["FIGURE10_RTTS", "RttFairnessResult", "run_figure10"]


@dataclass
class RttFairnessResult:
    """Normalised throughput share per RTT for one scheme."""

    scheme: str
    rtts: tuple[float, ...]
    #: Mean normalised share per flow (same order as ``rtts``), over all runs.
    shares: list[float] = field(default_factory=list)
    #: Jain's index of the mean allocation.
    jain: float = 0.0
    #: Standard error of each share over runs.
    share_stderr: list[float] = field(default_factory=list)

    def share_spread(self) -> float:
        """Max share minus min share: 0 for a perfectly RTT-fair scheme."""
        return max(self.shares) - min(self.shares) if self.shares else 0.0


def default_schemes() -> list[SchemeSpec]:
    """The four schemes of Figure 10."""
    return [
        SchemeSpec("Cubic/sfqCoDel", ProtocolSpec("cubic"), queue="sfqcodel"),
        remycc_scheme("delta0.1", label="Remy d=0.1"),
        remycc_scheme("delta1", label="Remy d=1"),
        remycc_scheme("delta10", label="Remy d=10"),
    ]


def run_figure10(
    schemes: Optional[Sequence[SchemeSpec]] = None,
    n_runs: int = 4,
    duration: float = 30.0,
    backend: Optional[ExecutionBackend] = None,
) -> list[RttFairnessResult]:
    """Run the differing-RTT scenario and return per-scheme share profiles."""
    schemes = list(schemes) if schemes is not None else default_schemes()
    # The registry cell pins the link, the four RTTs, the workload and the
    # seed; schemes without router support run over plain tail-drop.
    cell = get_scenario("fig10-rtt-fairness").override(queue="droptail")
    [runs] = run_cells([cell], schemes, n_runs=n_runs, duration=duration, backend=backend)
    results = []
    for scheme, run_results in zip(schemes, runs):
        per_run_shares: list[list[float]] = []
        for run_result in run_results:
            throughputs = [stats.throughput_bps() for stats in run_result.flow_stats]
            per_run_shares.append(normalized_shares(throughputs))

        mean_shares = [
            statistics.fmean(run[i] for run in per_run_shares)
            for i in range(len(FIGURE10_RTTS))
        ]
        stderr = []
        for i in range(len(FIGURE10_RTTS)):
            values = [run[i] for run in per_run_shares]
            if len(values) > 1:
                stderr.append(statistics.stdev(values) / len(values) ** 0.5)
            else:
                stderr.append(0.0)
        results.append(
            RttFairnessResult(
                scheme=scheme.name,
                rtts=FIGURE10_RTTS,
                shares=mean_shares,
                jain=jain_index(mean_shares),
                share_stderr=stderr,
            )
        )
    return results
