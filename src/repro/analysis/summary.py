"""Per-scheme summaries over repeated simulation runs.

The paper's methodology (§5.1): every scenario is run many times; each
individual run contributes one (queueing delay, throughput) point per sender;
the scheme is summarised by the median per-sender throughput and queueing
delay plus the 1-sigma ellipse of the point cloud.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.analysis.ellipse import GaussianEllipse, fit_gaussian_ellipse
from repro.netsim.simulator import SimulationResult


@dataclass
class SchemeSummary:
    """Summary statistics for one congestion-control scheme in one scenario."""

    scheme: str
    #: One entry per (run, sender): throughput in Mbit/s.
    throughputs_mbps: list[float] = field(default_factory=list)
    #: One entry per (run, sender): mean queueing delay in milliseconds.
    queue_delays_ms: list[float] = field(default_factory=list)

    def add_result(self, result: SimulationResult) -> None:
        """Fold one simulation run's per-sender points into the summary."""
        for stats in result.active_flows():
            self.throughputs_mbps.append(stats.throughput_mbps())
            self.queue_delays_ms.append(stats.avg_queue_delay_ms())

    def add_point(self, throughput_mbps: float, queue_delay_ms: float) -> None:
        self.throughputs_mbps.append(throughput_mbps)
        self.queue_delays_ms.append(queue_delay_ms)

    # -- medians / means ----------------------------------------------------------
    @property
    def n_points(self) -> int:
        return len(self.throughputs_mbps)

    def median_throughput_mbps(self) -> float:
        return statistics.median(self.throughputs_mbps) if self.throughputs_mbps else 0.0

    def median_queue_delay_ms(self) -> float:
        return statistics.median(self.queue_delays_ms) if self.queue_delays_ms else 0.0

    def mean_throughput_mbps(self) -> float:
        return statistics.fmean(self.throughputs_mbps) if self.throughputs_mbps else 0.0

    def mean_queue_delay_ms(self) -> float:
        return statistics.fmean(self.queue_delays_ms) if self.queue_delays_ms else 0.0

    # -- ellipse --------------------------------------------------------------------
    def ellipse(self) -> Optional[GaussianEllipse]:
        """1-sigma ellipse over (queueing delay, throughput) points."""
        if self.n_points < 2:
            return None
        return fit_gaussian_ellipse(self.queue_delays_ms, self.throughputs_mbps)

    # -- presentation ------------------------------------------------------------------
    def as_row(self) -> dict[str, float | str]:
        return {
            "scheme": self.scheme,
            "median_throughput_mbps": round(self.median_throughput_mbps(), 4),
            "median_queue_delay_ms": round(self.median_queue_delay_ms(), 3),
            "mean_throughput_mbps": round(self.mean_throughput_mbps(), 4),
            "mean_queue_delay_ms": round(self.mean_queue_delay_ms(), 3),
            "points": self.n_points,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SchemeSummary({self.scheme!r}, median {self.median_throughput_mbps():.2f} Mbps / "
            f"{self.median_queue_delay_ms():.1f} ms over {self.n_points} points)"
        )


def summarize_runs(scheme: str, results: Iterable[SimulationResult]) -> SchemeSummary:
    """Build a :class:`SchemeSummary` from an iterable of simulation runs."""
    summary = SchemeSummary(scheme)
    for result in results:
        summary.add_result(result)
    return summary


def format_summary_table(summaries: Sequence[SchemeSummary]) -> str:
    """Plain-text table of medians, one row per scheme (used by examples/benches)."""
    header = f"{'scheme':20s} {'median tput (Mbps)':>20s} {'median delay (ms)':>20s} {'points':>8s}"
    lines = [header, "-" * len(header)]
    for summary in summaries:
        lines.append(
            f"{summary.scheme:20s} {summary.median_throughput_mbps():20.3f} "
            f"{summary.median_queue_delay_ms():20.2f} {summary.n_points:8d}"
        )
    return "\n".join(lines)
