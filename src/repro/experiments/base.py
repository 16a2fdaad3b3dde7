"""Shared infrastructure for the experiment harnesses.

A :class:`SchemeSpec` bundles a congestion-control scheme, named by a
:class:`~repro.scenarios.spec.ProtocolSpec` like every cell's flows, with the
bottleneck queue discipline it requires (Cubic-over-sfqCoDel needs the
sfqCoDel gateway, XCP needs the XCP router, DCTCP needs the ECN-marking RED
gateway; everything else keeps the cell's queue).

:func:`run_cells` is the one harness entry point: it builds every
``(cell, scheme, run)`` simulation of a grid, seeds each run with
:func:`sweep_seed`, submits the whole grid as ONE :mod:`repro.runner` backend
batch and hands back the raw per-run results.  Every figure harness is cells
+ schemes + a reducer around a single :func:`run_cells` call; the
(throughput, delay)-cloud figures reduce into an :class:`ExperimentResult`.
The simulations are independent, so passing a
:class:`~repro.runner.ProcessPoolBackend` spreads them across cores with
results bit-identical to the default :class:`~repro.runner.SerialBackend`:
a job names its protocols, so it pickles by construction, and a worker loads
a named RemyCC table itself.

Cells come from the declarative registry (:mod:`repro.scenarios`): each
figure harness resolves its base cell by name and, via
:meth:`~repro.scenarios.spec.ScenarioSpec.override`, changes only the axis
its figure sweeps (a link speed, a queue, a workload, a scale), so the
topology/queue/workload definitions live in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.analysis.frontier import efficient_frontier
from repro.analysis.summary import SchemeSummary, format_summary_table, summarize_runs
from repro.netsim.simulator import SimulationResult
from repro.runner import ExecutionBackend, SerialBackend, SimJob
from repro.runner.jobs import mix_seed
from repro.scenarios import ProtocolSpec, ScenarioSpec, get_scenario


@dataclass(frozen=True)
class SchemeSpec:
    """A named congestion-control scheme plus the router support it needs."""

    name: str
    #: What runs on every flow of a cell under this scheme.
    protocol: ProtocolSpec
    #: Queue discipline the scheme runs over (None = keep the scenario's queue).
    queue: Optional[str] = None


def remycc_scheme(tree_name: str, label: Optional[str] = None) -> SchemeSpec:
    """A scheme running the named pretrained RemyCC over the cell's queue."""
    label = label if label is not None else f"Remy {tree_name}"
    return SchemeSpec(label, ProtocolSpec("remy", tree=tree_name))


def standard_schemes(
    include_remy: bool = True,
    remy_names: Sequence[str] = ("delta0.1", "delta1", "delta10"),
) -> list[SchemeSpec]:
    """The comparison set of Figures 4-9.

    End-to-end schemes (NewReno, Vegas, Cubic, Compound) and the two schemes
    that need in-network assistance (Cubic-over-sfqCoDel and XCP), plus the
    three general-purpose RemyCCs.
    """
    schemes = [
        SchemeSpec("NewReno", ProtocolSpec("newreno")),
        SchemeSpec("Vegas", ProtocolSpec("vegas")),
        SchemeSpec("Cubic", ProtocolSpec("cubic")),
        SchemeSpec("Compound", ProtocolSpec("compound")),
        SchemeSpec("Cubic/sfqCoDel", ProtocolSpec("cubic"), queue="sfqcodel"),
        SchemeSpec("XCP", ProtocolSpec("xcp"), queue="xcp"),
    ]
    if include_remy:
        for name in remy_names:
            schemes.append(remycc_scheme(name, label=f"Remy d={name.removeprefix('delta')}"))
    return schemes


def resolve_scenario(scenario: Union[str, ScenarioSpec]) -> ScenarioSpec:
    """Accept either a registered cell name or an explicit spec."""
    if isinstance(scenario, str):
        return get_scenario(scenario)
    return scenario


def sweep_seed(cell_name: str, base_seed: int, run_index: int) -> int:
    """The per-run simulation seed of every harness.

    ``mix_seed`` hashing over ``(cell, base seed, run)``: distinct cells
    sharing a base seed — or distinct ``(base_seed, run_index)`` pairs that
    arithmetic like ``base * 10_007 + run`` would make coincide — never
    replay one another's packet schedules.  Scheme-independent, so every
    scheme of a cell is compared on identical randomness; keyed on the cell
    *name*, so cells derived from one registry cell by ``override`` (a swept
    link speed, a swapped contender) share randomness across the variants.
    """
    return mix_seed("scenario-sweep", cell_name, base_seed, run_index)


def run_cells(
    cells: Sequence[Union[str, ScenarioSpec]],
    schemes: Optional[Sequence[SchemeSpec]] = None,
    *,
    n_runs: int,
    duration: Optional[float] = None,
    base_seed: Optional[int] = None,
    max_events: Optional[int] = None,
    trace_flows: tuple[int, ...] = (),
    backend: Optional[ExecutionBackend] = None,
) -> list[list[list[SimulationResult]]]:
    """Run a ``cell × scheme × run`` grid as ONE backend batch.

    ``cells`` are registered names and/or explicit specs.  Each scheme swaps
    in its own protocol and, if it needs router support, its own queue;
    ``schemes=None`` runs every cell once under its own (possibly mixed)
    protocol set.  ``duration`` and ``base_seed`` override the cells'
    canonical values; run ``r`` of a cell is seeded
    ``sweep_seed(cell.name, base seed, r)`` whatever the scheme.  Jobs name
    their protocols, which are instantiated fresh in whichever process runs
    each job, so the whole grid ships to ``backend``
    (default :class:`~repro.runner.SerialBackend`) at once and a process
    pool stays saturated across cells, not just within one.

    Returns the raw results as ``grid[cell][scheme][run]`` in the order
    given (one scheme slot when ``schemes`` is ``None``).
    """
    if n_runs <= 0:
        raise ValueError("n_runs must be positive")
    cells = [resolve_scenario(cell) for cell in cells]
    scheme_slots: Sequence[Optional[SchemeSpec]] = (None,) if schemes is None else schemes
    jobs: list[SimJob] = []
    for cell in cells:
        spec = cell.network
        workloads = tuple(cell.make_workloads() or ())
        for scheme in scheme_slots:
            protocols = cell.protocols if scheme is None else (scheme.protocol,)
            scheme_spec = spec
            if scheme is not None and scheme.queue is not None:
                scheme_spec = spec.with_hops(queue=scheme.queue)
            for run_index in range(n_runs):
                jobs.append(
                    SimJob(
                        job_id=len(jobs),
                        spec=scheme_spec,
                        duration=cell.duration if duration is None else duration,
                        seed=sweep_seed(
                            cell.name,
                            cell.seed if base_seed is None else base_seed,
                            run_index,
                        ),
                        workloads=workloads,
                        protocols=protocols,
                        max_events=max_events,
                        trace_flows=trace_flows,
                    )
                )
    if backend is None:
        backend = SerialBackend()
    results = iter(backend.run_batch(jobs))
    return [
        [[next(results).result for _ in range(n_runs)] for _ in scheme_slots]
        for _ in cells
    ]


@dataclass
class ExperimentResult:
    """Result of a figure-style experiment: one summary per scheme."""

    name: str
    summaries: dict[str, SchemeSummary] = field(default_factory=dict)

    @classmethod
    def from_runs(
        cls,
        name: str,
        schemes: Sequence[SchemeSpec],
        runs: Sequence[Sequence[SimulationResult]],
    ) -> "ExperimentResult":
        """Fold one cell's ``run_cells`` slice (``runs[scheme][run]``)."""
        return cls(
            name,
            {
                scheme.name: summarize_runs(scheme.name, scheme_runs)
                for scheme, scheme_runs in zip(schemes, runs)
            },
        )

    def __getitem__(self, scheme: str) -> SchemeSummary:
        return self.summaries[scheme]

    def schemes(self) -> list[str]:
        return list(self.summaries)

    def frontier(self) -> list[SchemeSummary]:
        """Schemes on the efficient (throughput vs queueing delay) frontier."""
        return efficient_frontier(list(self.summaries.values()))

    def frontier_names(self) -> list[str]:
        return [summary.scheme for summary in self.frontier()]

    def format_table(self) -> str:
        ordered = sorted(
            self.summaries.values(),
            key=lambda s: s.median_throughput_mbps(),
            reverse=True,
        )
        return f"== {self.name} ==\n" + format_summary_table(ordered)
