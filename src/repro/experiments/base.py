"""Shared infrastructure for the experiment harnesses.

A :class:`SchemeSpec` bundles a congestion-control scheme with the bottleneck
queue discipline it requires (Cubic-over-sfqCoDel needs the sfqCoDel gateway,
XCP needs the XCP router, DCTCP needs the ECN-marking RED gateway; everything
else runs over plain DropTail).  :func:`run_scheme` runs one scheme over a
scenario several times with different seeds and folds every sender's
(throughput, queueing delay) point into a :class:`SchemeSummary`.

The scheme × seed fan-out goes through a :mod:`repro.runner` execution
backend: the per-run simulations are independent, so passing a
:class:`~repro.runner.ProcessPoolBackend` spreads them across cores.  The
default :class:`~repro.runner.SerialBackend` reproduces the pre-backend
results bit-identically.  (RemyCC schemes parallelize because the rule table
itself ships to the workers; a scheme whose ``protocol_factory`` is a
closure — rather than a picklable module-level callable such as a protocol
class — fails fast on the process-pool backend and can only run serially.)

Scenarios come from the declarative registry (:mod:`repro.scenarios`): each
figure harness resolves its base cell by name and applies its paper-scale
knobs via :meth:`~repro.scenarios.spec.ScenarioSpec.override`, so the
topology/queue/workload definitions live in exactly one place.
:func:`run_scenario_sweep` batches a whole ``cell × scheme × seed`` grid
(collision-free ``mix_seed`` seeding) in one backend submission — the runner
behind the multi-bottleneck path matrix — and :func:`run_cell_experiment` is
its single-cell form under the figures' recorded seed arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.analysis.frontier import efficient_frontier
from repro.analysis.summary import SchemeSummary, format_summary_table
from repro.core.pretrained import pretrained_remycc
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.sender import Workload
from repro.netsim.simulator import SimulationResult, TopologySpec
from repro.protocols.base import CongestionControl
from repro.protocols.compound import CompoundTCP
from repro.protocols.cubic import Cubic
from repro.protocols.newreno import NewReno
from repro.protocols.remycc import RemyCCProtocol
from repro.protocols.vegas import Vegas
from repro.protocols.xcp import XCP
from repro.runner import ExecutionBackend, SerialBackend, SimJob
from repro.runner.jobs import mix_seed
from repro.scenarios import ScenarioSpec, get_scenario, iter_scenarios

ProtocolFactory = Callable[[], CongestionControl]
WorkloadFactory = Callable[[int], Workload]


@dataclass(frozen=True)
class SchemeSpec:
    """A named congestion-control scheme plus the router support it needs."""

    name: str
    protocol_factory: ProtocolFactory
    #: Queue discipline the scheme runs over (None = keep the scenario's queue).
    queue: Optional[str] = None
    #: RemyCC rule table, when the scheme is a RemyCC.  Set so the scheme can
    #: be described picklably to a process-pool backend (the factory lambda
    #: closing over the tree cannot cross a process boundary).
    tree: Optional[WhiskerTree] = None

    def make_protocols(self, n_flows: int) -> list[CongestionControl]:
        return [self.protocol_factory() for _ in range(n_flows)]


def remycc_scheme(tree_name: str, label: Optional[str] = None) -> SchemeSpec:
    """A scheme running the named pretrained RemyCC over DropTail."""
    tree = pretrained_remycc(tree_name)
    label = label if label is not None else f"Remy {tree_name}"
    return SchemeSpec(label, lambda t=tree: RemyCCProtocol(t), queue=None, tree=tree)


def remycc_scheme_from_tree(tree: WhiskerTree, label: str) -> SchemeSpec:
    """A scheme running an arbitrary (e.g. freshly optimized) rule table."""
    return SchemeSpec(label, lambda t=tree: RemyCCProtocol(t), queue=None, tree=tree)


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
        SchemeSpec("NewReno", NewReno),
        SchemeSpec("Vegas", Vegas),
        SchemeSpec("Cubic", Cubic),
        SchemeSpec("Compound", CompoundTCP),
        SchemeSpec("Cubic/sfqCoDel", Cubic, queue="sfqcodel"),
        SchemeSpec("XCP", XCP, queue="xcp"),
    ]
    if include_remy:
        for name in remy_names:
            schemes.append(remycc_scheme(name, label=f"Remy d={name.removeprefix('delta')}"))
    return schemes


def _scheme_jobs(
    scheme: SchemeSpec,
    spec: TopologySpec,
    workload_factory: WorkloadFactory,
    n_runs: int,
    duration: float,
    base_seed: int,
    max_events: Optional[int],
    first_job_id: int,
    seed_for_run: Optional[Callable[[int, int], int]] = None,
    trace_flows: tuple[int, ...] = (),
    kernel: str = "auto",
) -> list[SimJob]:
    """Build the ``n_runs`` jobs for one scheme over a scenario.

    Seeds depend only on ``(base_seed, run_index)`` — never on the scheme or
    on batch position — so every scheme of a figure is compared on identical
    packet-level randomness and batching jobs across schemes cannot change
    any result.  ``seed_for_run`` customizes the derivation (the sweep runner
    passes a ``mix_seed``-based one; the default keeps the recorded figures'
    historical ``base_seed * 10_007 + run_index`` arithmetic bit-identical).
    """
    scenario_spec = spec.with_queue(scheme.queue) if scheme.queue is not None else spec
    if seed_for_run is None:
        seed_for_run = lambda base, run: base * 10_007 + run  # noqa: E731
    jobs = []
    for run_index in range(n_runs):
        workloads = tuple(
            workload_factory(flow_id) for flow_id in range(scenario_spec.n_flows)
        )
        common = dict(
            job_id=first_job_id + run_index,
            spec=scenario_spec,
            duration=duration,
            seed=seed_for_run(base_seed, run_index),
            workloads=workloads,
            max_events=max_events,
            trace_flows=trace_flows,
            kernel=kernel,
        )
        if scheme.tree is not None:
            jobs.append(SimJob(tree=scheme.tree, training=False, **common))
        else:
            jobs.append(SimJob(protocol_factory=scheme.protocol_factory, **common))
    return jobs


def run_scheme(
    scheme: SchemeSpec,
    spec: TopologySpec,
    workload_factory: WorkloadFactory,
    n_runs: int = 4,
    duration: float = 30.0,
    base_seed: int = 0,
    max_events: Optional[int] = None,
    backend: Optional[ExecutionBackend] = None,
) -> SchemeSummary:
    """Run ``scheme`` over the scenario ``n_runs`` times and summarise it.

    The runs are submitted as one batch to ``backend`` (default: the
    bit-identical :class:`~repro.runner.SerialBackend`).
    """
    return run_schemes(
        [scheme],
        spec,
        workload_factory,
        n_runs=n_runs,
        duration=duration,
        base_seed=base_seed,
        max_events=max_events,
        backend=backend,
    )[0]


def run_schemes(
    schemes: Sequence[SchemeSpec],
    spec: TopologySpec,
    workload_factory: WorkloadFactory,
    n_runs: int = 4,
    duration: float = 30.0,
    base_seed: int = 0,
    max_events: Optional[int] = None,
    backend: Optional[ExecutionBackend] = None,
) -> list[SchemeSummary]:
    """Run every scheme over the scenario as ONE backend batch.

    The figure harnesses fan out ``len(schemes) × n_runs`` independent
    simulations; batching them together (rather than one batch per scheme)
    keeps a :class:`~repro.runner.ProcessPoolBackend` saturated across the
    whole figure instead of draining between schemes.  Results are identical
    to per-scheme batches because per-run seeds and workloads depend only on
    ``(base_seed, run_index)``.
    """
    if n_runs <= 0:
        raise ValueError("n_runs must be positive")
    jobs: list[SimJob] = []
    boundaries: list[int] = []
    for scheme in schemes:
        jobs.extend(
            _scheme_jobs(
                scheme,
                spec,
                workload_factory,
                n_runs,
                duration,
                base_seed,
                max_events,
                first_job_id=len(jobs),
            )
        )
        boundaries.append(len(jobs))
    if backend is None:
        backend = SerialBackend()
    results = backend.run_batch(jobs)
    summaries = []
    start = 0
    for scheme, end in zip(schemes, boundaries):
        summary = SchemeSummary(scheme.name)
        for job_result in results[start:end]:
            summary.add_result(job_result.result)
        summaries.append(summary)
        start = end
    return summaries


def run_scheme_results(
    scheme: SchemeSpec,
    spec: TopologySpec,
    workload_factory: WorkloadFactory,
    n_runs: int = 4,
    duration: float = 30.0,
    base_seed: int = 0,
    max_events: Optional[int] = None,
    backend: Optional[ExecutionBackend] = None,
    seed_for_run: Optional[Callable[[int, int], int]] = None,
    trace_flows: tuple[int, ...] = (),
) -> list[SimulationResult]:
    """Per-run raw results for one scheme — the un-folded sibling of
    :func:`run_scheme`.

    Figures whose metric is not a (throughput, delay) cloud — per-flow share
    profiles, objective scores, sequence traces — need each run's
    :class:`~repro.netsim.simulator.SimulationResult` rather than a
    :class:`SchemeSummary` fold.  The fan-out still goes through the shared
    job builder and a backend batch, so seeds/workloads/protocols are
    constructed exactly as :func:`run_scheme` would (``seed_for_run``
    preserves each recorded figure's historical per-run seed arithmetic).
    """
    if n_runs <= 0:
        raise ValueError("n_runs must be positive")
    jobs = _scheme_jobs(
        scheme,
        spec,
        workload_factory,
        n_runs,
        duration,
        base_seed,
        max_events,
        first_job_id=0,
        seed_for_run=seed_for_run,
        trace_flows=trace_flows,
    )
    if backend is None:
        backend = SerialBackend()
    return [job_result.result for job_result in backend.run_batch(jobs)]


def resolve_scenario(scenario: Union[str, ScenarioSpec]) -> ScenarioSpec:
    """Accept either a registered cell name or an explicit spec."""
    if isinstance(scenario, str):
        return get_scenario(scenario)
    return scenario


#: Seed derivation used by the scenario sweep: ``(cell, base, run) -> seed``.
SeedDerivation = Callable[[str, int, int], int]


def legacy_seed(cell_name: str, base_seed: int, run_index: int) -> int:
    """The recorded figures' historical per-run seed arithmetic.

    Cell-independent by design: the committed figure outputs were generated
    with ``base_seed * 10_007 + run_index`` before the sweep runner existed,
    and the figure harnesses must keep reproducing them bit-identically.
    New grids should use :func:`sweep_seed` (collision-free) instead.
    """
    return base_seed * 10_007 + run_index


def sweep_seed(cell_name: str, base_seed: int, run_index: int) -> int:
    """Collision-free per-run seed for the scenario sweep grid.

    ``mix_seed`` hashing over ``(cell, base seed, run)``: distinct cells
    sharing a base seed — or distinct ``(base_seed, run_index)`` pairs whose
    arithmetic like ``base * 10_007 + run`` would coincide — never replay
    one another's packet schedules.  Scheme-independent by construction, so
    every scheme of a cell is compared on identical randomness.
    """
    return mix_seed("scenario-sweep", cell_name, base_seed, run_index)


def run_cell_results(
    scenario: Union[str, ScenarioSpec],
    n_runs: int = 1,
    duration: Optional[float] = None,
    base_seed: Optional[int] = None,
    seed_derivation: Optional[SeedDerivation] = None,
    max_events: Optional[int] = None,
    backend: Optional[ExecutionBackend] = None,
    trace_flows: tuple[int, ...] = (),
) -> list[SimulationResult]:
    """Run one cell ``n_runs`` times as a backend batch; raw per-run results.

    The raw-results runner for cells whose protocol set is fixed by the cell
    itself — mixed-protocol cells like the §5.6 coexistence table (a RemyCC
    sharing the bottleneck with Cubic), or single-scheme cells whose figure
    reads per-flow traces — where :func:`run_scenario_sweep`'s
    scheme-swapping fan-out does not apply.  The cell's protocol set,
    workloads and kernel choice travel with the (self-contained, picklable)
    jobs; protocols are instantiated fresh in whichever process runs each
    job, exactly as the hand-written harness loops did per run.

    ``seed_derivation`` maps ``(cell name, base seed, run index)`` to each
    run's seed (default: the collision-free :func:`sweep_seed`); harnesses
    reproducing recorded outputs pass their historical arithmetic.
    """
    if n_runs <= 0:
        raise ValueError("n_runs must be positive")
    cell = resolve_scenario(scenario)
    if seed_derivation is None:
        seed_derivation = sweep_seed
    cell_duration = cell.duration if duration is None else duration
    cell_seed = cell.seed if base_seed is None else base_seed
    spec = cell.network_spec()
    jobs = []
    for run_index in range(n_runs):
        workloads = cell.make_workloads()
        jobs.append(
            SimJob(
                job_id=run_index,
                spec=spec,
                duration=cell_duration,
                seed=seed_derivation(cell.name, cell_seed, run_index),
                workloads=tuple(workloads) if workloads is not None else (),
                scenario=cell,
                max_events=max_events,
                trace_flows=tuple(trace_flows),
                kernel=cell.kernel,
            )
        )
    if backend is None:
        backend = SerialBackend()
    return [job_result.result for job_result in backend.run_batch(jobs)]


def run_scenario_sweep(
    scenarios: Optional[Sequence[Union[str, ScenarioSpec]]],
    schemes: Sequence[SchemeSpec],
    n_runs: int = 4,
    duration: Optional[float] = None,
    max_events: Optional[int] = None,
    backend: Optional[ExecutionBackend] = None,
    base_seed: Optional[int] = None,
    seed_derivation: Optional[SeedDerivation] = None,
) -> dict[str, list[SchemeSummary]]:
    """Run a ``cell × scheme × seed`` grid as ONE backend batch.

    The sweep runner behind the multi-bottleneck/path matrix and (via
    :func:`run_cell_experiment`) every figure harness: each
    ``(cell, scheme, run)`` simulation of the grid is independent, so the
    whole grid ships to the backend at once and a process pool stays
    saturated across cells, not just within one.  ``scenarios`` accepts
    registered names and/or explicit specs; ``None`` sweeps every registered
    cell.  Returns ``{cell name: [summary per scheme]}``.

    ``base_seed`` overrides every cell's canonical seed (the figure
    harnesses expose it); ``seed_derivation`` maps ``(cell name, base seed,
    run index)`` to each run's simulation seed.  The default is
    :func:`sweep_seed` — the collision-free ``mix_seed`` derivation ROADMAP
    deferred for the recorded figures; the figure harnesses pass
    :func:`legacy_seed` so committed outputs stay bit-identical.
    """
    if n_runs <= 0:
        raise ValueError("n_runs must be positive")
    if seed_derivation is None:
        seed_derivation = sweep_seed
    cells = [resolve_scenario(s) for s in scenarios] if scenarios is not None else iter_scenarios()
    jobs: list[SimJob] = []
    boundaries: list[tuple[str, str, int]] = []  # (cell, scheme, end index)
    for cell in cells:
        spec = cell.network_spec()
        workload_factory = cell.workload_factory()
        cell_duration = cell.duration if duration is None else duration
        cell_seed = cell.seed if base_seed is None else base_seed
        seed_for_run = lambda base, run, _name=cell.name: seed_derivation(_name, base, run)  # noqa: E731
        for scheme in schemes:
            jobs.extend(
                _scheme_jobs(
                    scheme,
                    spec,
                    workload_factory,
                    n_runs,
                    cell_duration,
                    cell_seed,
                    max_events,
                    first_job_id=len(jobs),
                    seed_for_run=seed_for_run,
                    kernel=cell.kernel,
                )
            )
            boundaries.append((cell.name, scheme.name, len(jobs)))
    if backend is None:
        backend = SerialBackend()
    results = backend.run_batch(jobs)
    sweep: dict[str, list[SchemeSummary]] = {}
    start = 0
    for cell_name, scheme_name, end in boundaries:
        summary = SchemeSummary(scheme_name)
        for job_result in results[start:end]:
            summary.add_result(job_result.result)
        sweep.setdefault(cell_name, []).append(summary)
        start = end
    return sweep


@dataclass
class ExperimentResult:
    """Result of a figure-style experiment: one summary per scheme."""

    name: str
    summaries: dict[str, SchemeSummary] = field(default_factory=dict)
    #: Free-form metadata (scenario parameters) recorded for EXPERIMENTS.md.
    parameters: dict[str, object] = field(default_factory=dict)

    def add(self, summary: SchemeSummary) -> None:
        self.summaries[summary.scheme] = summary

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


def run_cell_experiment(
    name: str,
    scenario: Union[str, ScenarioSpec],
    schemes: Optional[Sequence[SchemeSpec]] = None,
    n_runs: int = 4,
    duration: Optional[float] = None,
    base_seed: Optional[int] = None,
    max_events: Optional[int] = None,
    backend: Optional[ExecutionBackend] = None,
    parameters: Optional[dict[str, object]] = None,
) -> ExperimentResult:
    """One figure-style experiment: a cell, a scheme set, one folded result.

    The shared tail of every ``run_figure*`` harness — resolve the default
    scheme list, run the whole ``scheme × run`` fan-out as one backend batch
    (a single-cell :func:`run_scenario_sweep` under :func:`legacy_seed`
    seeding, so recorded outputs are bit-identical) and fold the summaries
    into an :class:`ExperimentResult`.  The cell supplies the topology (with
    any trace materialized), the per-flow workloads, and — when not
    overridden — its canonical duration and seed; each scheme still swaps in
    its own protocols and, if it needs router support, its own queue
    discipline.
    """
    schemes = list(schemes) if schemes is not None else standard_schemes()
    cell = resolve_scenario(scenario)
    sweep = run_scenario_sweep(
        [cell],
        schemes,
        n_runs=n_runs,
        duration=duration,
        max_events=max_events,
        backend=backend,
        base_seed=base_seed,
        seed_derivation=legacy_seed,
    )
    result = ExperimentResult(name=name, parameters=dict(parameters or {}))
    for summary in sweep[cell.name]:
        result.add(summary)
    return result
