"""The scheme × path × AQM results study.

The paper's figures each fix one topology and sweep the scheme axis.  This
module runs the *grid*: every dumbbell, multi-bottleneck path and AQM cell of
the scenario registry × the paper's comparison schemes plus BBR, and distils
the ``{cell: [SchemeSummary]}`` sweep output into a ranked throughput/delay
table per cell with the efficient-frontier schemes marked.

The committed study artifact (``results/STUDY.md``, regenerated by
``tools/run_study.py``) is the repo's answer to the paper's open
generalization question in table form: which schemes stay on the
throughput/delay frontier as the topology leaves the design space — across
parking lots, congested reverse paths, mixed AQM chains — and where the
model-based BBR lands relative to the learned RemyCCs.

:func:`run_study` is one more fold over the harnesses' runner: a
:class:`~repro.experiments.base.Plan` of the whole grid (one backend batch)
folded with :mod:`repro.analysis.summary` / :mod:`repro.analysis.frontier`
(the paper's §5.1 summary statistics), so the study inherits the harnesses'
collision-free seeding and bit-exact backend parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.analysis.frontier import efficient_frontier
from repro.analysis.summary import SchemeSummary, summarize_runs
from repro.experiments.base import Grid, Plan, SchemeSpec, Slice, resolve_scenario, standard_schemes
from repro.runner import ExecutionBackend
from repro.scenarios import ProtocolSpec, ScenarioSpec, iter_scenarios

#: Topology tags the study sweeps: the single-bottleneck dumbbells, the
#: multi-bottleneck/reverse-path cells, and the BBR-vs-AQM cells.
STUDY_TOPOLOGIES = ("dumbbell", "aqm", "path")


def bbr_scheme() -> SchemeSpec:
    """BBR as a sweep scheme (end-to-end: keeps each cell's own queue)."""
    return SchemeSpec("BBR", ProtocolSpec("bbr"))


def study_schemes() -> list[SchemeSpec]:
    """The paper's comparison set (Figures 4-9) plus BBR."""
    return standard_schemes() + [bbr_scheme()]


def study_cells() -> list[ScenarioSpec]:
    """Registered cells on the study's topology axes, registry order."""
    return [cell for cell in iter_scenarios() if cell.topology in STUDY_TOPOLOGIES]


@dataclass
class CellStudy:
    """One cell's ranked scheme table."""

    cell: ScenarioSpec
    #: Summaries ranked by median throughput, highest first.
    ranked: list[SchemeSummary]
    #: Scheme names on the cell's efficient throughput/delay frontier.
    frontier: list[str]

    def rows(self) -> list[dict[str, object]]:
        """One dict per scheme, ranked, with frontier membership marked."""
        return [
            {
                "rank": rank,
                "frontier": summary.scheme in self.frontier,
                **summary.as_row(),
            }
            for rank, summary in enumerate(self.ranked, start=1)
        ]


@dataclass
class StudyResult:
    """The full grid: one :class:`CellStudy` per swept cell."""

    #: Simulated seconds per run; ``None`` when every cell ran its own
    #: canonical duration.
    duration: Optional[float]
    n_runs: int
    cells: list[CellStudy] = field(default_factory=list)

    def cell(self, name: str) -> CellStudy:
        for cell_study in self.cells:
            if cell_study.cell.name == name:
                return cell_study
        raise KeyError(f"cell {name!r} not in study")

    def frontier_appearances(self) -> list[tuple[str, int]]:
        """How often each scheme lands on a cell frontier, most first.

        Ties break by scheme name so the ranking is deterministic.
        """
        counts: dict[str, int] = {}
        for cell_study in self.cells:
            for summary in cell_study.ranked:
                counts.setdefault(summary.scheme, 0)
            for scheme in cell_study.frontier:
                counts[scheme] += 1
        return sorted(counts.items(), key=lambda item: (-item[1], item[0]))

    def to_markdown(self) -> str:
        """The committed study artifact: ranked tables, frontier marked."""
        run_length = (
            f"{self.duration:g} simulated seconds"
            if self.duration is not None
            else "each cell's canonical duration"
        )
        lines = [
            "# Scheme × path × AQM study",
            "",
            "Ranked per-cell throughput/delay tables over the scenario "
            "registry's dumbbell, AQM and multi-bottleneck path cells.  "
            "Each point pools per-sender results over "
            f"{self.n_runs} run(s) of {run_length} "
            "(collision-free `sweep_seed` seeding).  `*` marks schemes on "
            "the cell's efficient throughput/delay frontier (higher "
            "throughput, lower queueing delay; see "
            "`repro.analysis.frontier`).  Regenerate with "
            "`PYTHONPATH=src python tools/run_study.py`.",
            "",
            "## Frontier appearances",
            "",
            "How often each scheme lands on a cell's efficient frontier "
            f"across the {len(self.cells)} cells:",
            "",
            "| scheme | frontier cells |",
            "|---|---:|",
        ]
        for scheme, count in self.frontier_appearances():
            lines.append(f"| {scheme} | {count}/{len(self.cells)} |")
        for cell_study in self.cells:
            cell = cell_study.cell
            lines += [
                "",
                f"## {cell.name}",
                "",
                f"{cell.description} (topology `{cell.topology}`)",
                "",
                "| rank | scheme | median tput (Mbps) | median delay (ms) | points |",
                "|---:|---|---:|---:|---:|",
            ]
            for row in cell_study.rows():
                marker = "\\*" if row["frontier"] else ""
                lines.append(
                    f"| {row['rank']} | {row['scheme']}{marker} "
                    f"| {row['median_throughput_mbps']:.3f} "
                    f"| {row['median_queue_delay_ms']:.2f} "
                    f"| {row['points']} |"
                )
        return "\n".join(lines) + "\n"


def run_study(
    cells: Optional[Sequence[Union[str, ScenarioSpec]]] = None,
    schemes: Optional[Sequence[SchemeSpec]] = None,
    n_runs: int = 2,
    duration: Optional[float] = None,
    backend: Optional[ExecutionBackend] = None,
    max_events: Optional[int] = None,
) -> StudyResult:
    """Run the grid and rank each cell's schemes by median throughput.

    ``duration=None`` keeps every cell's canonical (test-scale) duration;
    the committed artifact is generated at paper-scale durations via
    ``tools/run_study.py``.
    """
    cell_specs = study_cells() if cells is None else [resolve_scenario(c) for c in cells]
    scheme_specs = list(schemes) if schemes is not None else study_schemes()

    def fold(grid: Slice) -> StudyResult:
        result = StudyResult(duration=duration, n_runs=n_runs)
        for cell, cell_runs in zip(cell_specs, grid):
            summaries = [
                summarize_runs(scheme.name, runs) for scheme, runs in zip(scheme_specs, cell_runs)
            ]
            ranked = sorted(summaries, key=lambda s: s.median_throughput_mbps(), reverse=True)
            frontier = [s.scheme for s in efficient_frontier(summaries)]
            result.cells.append(CellStudy(cell=cell, ranked=ranked, frontier=frontier))
        return result

    grid = Grid(cell_specs, scheme_specs, n_runs=n_runs, duration=duration, max_events=max_events)
    return Plan(grid, fold).run(backend)
