#!/usr/bin/env python3
"""The repo benchmark: design run, pooled design run, study sweep, long simulations.

One command runs four closed-loop, single-client workloads, prints every
metric by name with its unit, checks the outputs and ends with one JSON
result line per workload (the contract of the root ``BENCHMARK.json``).  A
workload runs in one process; ``--workload all`` (the default) starts a fresh
one for each, the way the driver does::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                         [--reps N] [--scale default|tiny] [--json PATH] [--markdown PATH]

Every layer is reached only through public calls (``Evaluator``,
``RemyOptimizer``, ``SerialBackend``, ``ProcessPoolBackend``, ``run_study``,
``get_scenario(...).build(duration=)``, ``Simulation.run``).  End-to-end
numbers are always taken with tracing off; ``--trace 1`` adds one repetition
under boundary spans and one under cProfile for the per-layer numbers.  See
``bench/README.md`` for what each workload is for and how to read a change.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import heapq
import json
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
# The driver runs ``python3 bench/run.py`` from a bare checkout, no PYTHONPATH.
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import study  # noqa: E402
from repro.core.config import ConfigRange, NetConfig, general_purpose_range  # noqa: E402
from repro.core.evaluator import Evaluator, EvaluatorSettings  # noqa: E402
from repro.core.objective import Objective  # noqa: E402
from repro.core.optimizer import OptimizerSettings, RemyOptimizer  # noqa: E402
from repro.core.whisker_tree import WhiskerTree  # noqa: E402
from repro.runner import (  # noqa: E402
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    SimJob,
    SimJobResult,
    available_workers,
    prepare_jobs,
    whisker_tree_token,
)
from repro.scenarios import (  # noqa: E402
    ScenarioSpec,
    cell_fingerprint,
    get_scenario,
    load_golden,
    simulation_fingerprint,
)

import metrics  # noqa: E402  (bench/metrics.py: the script's directory is on sys.path)
import spans  # noqa: E402

#: Relative jitter ``--seed`` applies to the network parameters of the inputs.
INPUT_JITTER = 0.01
#: A repetition whose before/after calibration readings differ by more is noisy.
NOISY_CALIBRATION = 0.10
#: ``calibrate()`` reading (seconds per loop) of the 2-CPU box this benchmark
#: was written on, unloaded.  Every reported timing is scaled to this host
#: speed (see ``Timing``), because that box's speed drifts by up to 50 %
#: within minutes.
REFERENCE_SECONDS_PER_LOOP = 0.76e-6


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes.  ``default`` is ISSUE 11's sizing cut to the driver's time
    cap (sim durations shortened, never the repetition count); ``tiny`` is
    what ``bench/test_smoke.py`` runs."""

    design_sim_duration: float
    design_max_evaluations: int
    sweep_duration: float
    #: ``None`` = every study cell (17); tiny keeps one per topology tag.
    sweep_cells: Optional[tuple[str, ...]]
    #: Simulated seconds per ``sim-long`` cell, in ``SIM_LONG_CELLS`` order.
    sim_durations: tuple[float, ...]
    setup_samples: int
    #: Iterations of one ``calibrate()`` reading (≈ 0.2 s at default scale).
    calibration_loops: int


SCALES = {
    "default": Scale(
        design_sim_duration=2.0,
        design_max_evaluations=105,
        sweep_duration=4.0,
        sweep_cells=None,
        sim_durations=(120.0, 120.0, 120.0, 120.0, 90.0, 120.0),
        setup_samples=5,
        calibration_loops=250_000,
    ),
    "tiny": Scale(
        design_sim_duration=0.5,
        design_max_evaluations=27,
        sweep_duration=1.0,
        sweep_cells=("fig4-dumbbell8", "bbr-dumbbell-codel", "parking-lot-2bn"),
        sim_durations=(2.0,) * 6,
        setup_samples=1,
        calibration_loops=10_000,
    ),
}


# ---------------------------------------------------------------------------
# What one repetition hands back
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class Rep:
    """Output of one repetition, read from its result objects off the clock."""

    digest: str
    #: Nominal work units (requested evaluations / points / recorded events).
    work: float
    #: Nominal simulated seconds requested.
    sim_seconds: float
    #: Every simulation's result, in execution order.
    results: list[Any]
    #: ``max_events`` each of those simulations ran under (``None`` = uncapped).
    caps: list[Optional[int]]
    #: ``(jobs, job results)`` per backend batch (empty on ``sim-long``).
    batches: list[tuple[Sequence[SimJob], list[SimJobResult]]]
    #: Exact ``core.*`` counts of this workload.
    counts: dict[str, float]
    #: Structural checks attempted, and the ones that failed.
    checks: int
    problems: list[str]
    #: Informational extras for the JSON document.
    detail: dict[str, Any]


class RecordingBackend(ExecutionBackend):
    """Delegates to a real backend and keeps every batch's jobs and results.

    Appending two references per batch is all it does while the clock runs;
    counts are read from the kept result objects afterwards.
    """

    def __init__(self, inner: ExecutionBackend) -> None:
        self.inner = inner
        self.shares_memory = inner.shares_memory
        self.batches: list[tuple[Sequence[SimJob], list[SimJobResult]]] = []

    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimJobResult]:
        results = self.inner.run_batch(jobs)
        self.batches.append((jobs, results))
        return results

    def results(self) -> list[Any]:
        """Every simulation's result, in execution order."""
        return [job_result.result for _, batch in self.batches for job_result in batch]

    def caps(self) -> list[Optional[int]]:
        """The ``max_events`` each of those simulations ran under."""
        return [job.max_events for jobs, _ in self.batches for job in jobs]


def sha256_json(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def jittered(cell: ScenarioSpec, seed: int) -> ScenarioSpec:
    """The cell itself at seed 0 (its golden identity); otherwise the cell
    with its RTT(s) scaled by up to ±1 %.

    The packet schedule diverges from the first RTT on, but every flow keeps
    its own random draws, so the offered traffic — and with it the amount of
    work — stays put: re-seeding the cells instead moves ``sweep-smoke``'s
    event count by 12 % from seed to seed, the jitter by 1 %.
    """
    if seed == 0:
        return cell
    factor = 1 + random.Random(f"bench-jitter:{cell.name}:{seed}").uniform(-INPUT_JITTER, INPUT_JITTER)
    rtt = cell.network.rtt
    return cell.override(rtt=rtt * factor if isinstance(rtt, (int, float)) else tuple(r * factor for r in rtt))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class JitteredRange(ConfigRange):
    """A design range whose drawn specimens are nudged by ``jitter_seed``.

    The design workloads pin ``EvaluatorSettings.seed`` to 0 — a free
    evaluator seed moves the event count of the same 300-evaluation run from
    54 k to 1.5 M (which senders happen to switch on), far past any bound —
    and let ``--seed`` scale each specimen's link speed and RTT by up to
    ±1 % instead: new inputs every seed, the same amount of work.
    """

    jitter_seed: int = 0

    def specimens(self, count: int, seed: int = 0) -> list[NetConfig]:
        drawn = super().specimens(count, seed=seed)
        if self.jitter_seed == 0:
            return drawn
        rng = random.Random(f"bench-jitter:design:{self.jitter_seed}")
        return [
            dataclasses.replace(
                specimen,
                link_speed_bps=specimen.link_speed_bps * (1 + rng.uniform(-INPUT_JITTER, INPUT_JITTER)),
                rtt_seconds=specimen.rtt_seconds * (1 + rng.uniform(-INPUT_JITTER, INPUT_JITTER)),
            )
            for specimen in drawn
        ]


#: What ``Workload.run`` returns: the repetition is done, and calling this
#: reads its outputs into a :class:`Rep` — after the clock has stopped.
ReadOutputs = Callable[[], Rep]


class Workload:
    """One benchmark workload: inputs made in ``__init__``, ``set_up`` warms
    (and spawns), ``run`` is one repetition, ``close`` reaps."""

    #: Worker processes the repetition's simulations run on.
    width = 1
    pooled = False

    def set_up(self) -> None:
        raise NotImplementedError

    def run(self) -> ReadOutputs:
        raise NotImplementedError

    def close(self) -> None:
        pass

    @contextlib.contextmanager
    def ready(self) -> Iterator["Workload"]:
        """Set up, and close again whatever happens (no worker is left behind)."""
        self.set_up()
        try:
            yield self
        finally:
            self.close()


class DesignWorkload(Workload):
    """``RemyOptimizer.optimize()`` wired as ``examples/train_remycc.py`` wires it."""

    EXPECTED_RULES = 8

    def __init__(self, scale: Scale, seed: int, pooled: bool) -> None:
        self.scale = scale
        self.pooled = pooled
        if pooled:
            self.width = min(2, available_workers())
        base = general_purpose_range()
        self.config_range = JitteredRange(
            **{f.name: getattr(base, f.name) for f in dataclasses.fields(base)},
            jitter_seed=seed,
        )
        self.backend: Optional[ExecutionBackend] = None

    def set_up(self) -> None:
        self.backend = ProcessPoolBackend(max_workers=self.width) if self.pooled else SerialBackend()
        # One whole neighbourhood (1 + 26 evaluations) at a tenth of a second
        # per sim: imports, code paths and — pooled — every worker spawned.
        self._design(sim_duration=0.1, max_evaluations=27)

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    def run(self) -> ReadOutputs:
        return self._design(self.scale.design_sim_duration, self.scale.design_max_evaluations)

    def _design(self, sim_duration: float, max_evaluations: int) -> ReadOutputs:
        assert self.backend is not None, "set_up() first"
        recorder = RecordingBackend(self.backend)
        evaluator = Evaluator(
            self.config_range,
            Objective.proportional(1.0),
            EvaluatorSettings(num_specimens=2, sim_duration=sim_duration, seed=0),
            backend=recorder,
        )
        accepted: list[str] = []
        settings = OptimizerSettings(
            epochs_per_split=1, max_epochs=2, max_evaluations=max_evaluations, candidate_magnitudes=1
        )
        optimizer = RemyOptimizer(
            evaluator,
            tree=WhiskerTree(name="bench"),
            settings=settings,
            progress=lambda message, state: accepted.append(message),
        )
        optimizer.optimize()
        return lambda: self._read(recorder, optimizer, accepted, sim_duration)

    def _read(
        self, recorder: RecordingBackend, optimizer: RemyOptimizer, accepted: list[str], sim_duration: float
    ) -> Rep:
        tree, state, settings = optimizer.tree, optimizer.state, optimizer.settings
        max_evaluations = settings.max_evaluations
        tree_token = whisker_tree_token(tree)
        history = [repr(score) for score in state.score_history]
        checks = {
            f"rules == {self.EXPECTED_RULES}": len(tree) == self.EXPECTED_RULES,
            "best_score >= first score": bool(history) and state.best_score >= state.score_history[0],
            "evaluation budget consumed": state.evaluations_used >= max_evaluations,
        }
        counts = {
            "core.evaluations": state.evaluations_used,
            "core.batches": len(recorder.batches),
            "core.improvements": state.improvements,
            "core.rules": len(tree),
            **candidate_shares(recorder.batches, state.score_history, settings.improvement_threshold),
        }
        return Rep(
            digest=sha256_json([tree_token, history, accepted]),
            work=max_evaluations,
            sim_seconds=max_evaluations * len(optimizer.evaluator.specimens) * sim_duration,
            results=recorder.results(),
            caps=recorder.caps(),
            batches=recorder.batches,
            counts=counts,
            checks=len(checks),
            problems=[name for name, ok in checks.items() if not ok],
            detail={
                "tree_token": tree_token,
                "best_score": state.best_score,
                "first_score": state.score_history[0] if history else None,
                "largest_batch_event_share": largest_batch_event_share(recorder.batches),
            },
        )


def trees_of(jobs: Sequence[SimJob]) -> list[list[int]]:
    """Job indices grouped by rule table, in submission (tree-major) order."""
    groups: dict[int, list[int]] = {}
    for index, job in enumerate(jobs):
        groups.setdefault(id(job.tree), []).append(index)
    return list(groups.values())


def candidate_shares(
    batches: Sequence[tuple[Sequence[SimJob], list[SimJobResult]]],
    score_history: Sequence[float],
    threshold: float,
) -> dict[str, float]:
    """Useful-to-attempted ratios of the hill-climb, from the recorded batches.

    ``unique_candidate_share``: distinct rule tables (by content token) over
    candidates, per ``evaluate_many`` batch, pooled.  ``losing_event_share``:
    events simulated for candidates that were not accepted, over all events.
    A candidate is accepted the way ``_improve_whisker`` accepts it — its
    score beats the running best by more than the threshold and no later
    candidate of the same batch does; scores are ``score_history`` entries,
    which are in evaluation order like the batches.
    """
    candidates = distinct = 0
    events_total = events_kept = 0
    best = float("-inf")
    scores = iter(score_history)
    for jobs, job_results in batches:
        groups = trees_of(jobs)
        training = bool(jobs) and jobs[0].training
        group_events = [sum(job_results[i].result.events_processed for i in g) for g in groups]
        events_total += sum(group_events)
        group_scores = [next(scores, float("nan")) for _ in groups]
        if training:
            # A baseline or split evaluation: all of it is needed, and the
            # epoch's running best restarts from it.
            events_kept += sum(group_events)
            best = group_scores[-1]
            continue
        candidates += len(groups)
        distinct += len({whisker_tree_token(jobs[g[0]].tree) for g in groups})
        winner = None
        for index, score in enumerate(group_scores):
            if score > best + threshold:
                best, winner = score, index
        if winner is not None:
            events_kept += group_events[winner]
    return {
        "core.unique_candidate_share": distinct / candidates if candidates else 1.0,
        "core.losing_event_share": 1 - events_kept / events_total if events_total else 0.0,
    }


def largest_batch_event_share(batches: Sequence[tuple[Any, list[SimJobResult]]]) -> float:
    """Share of all events spent in the single most expensive batch."""
    per_batch = [sum(jr.result.events_processed for jr in results) for _, results in batches]
    return max(per_batch) / sum(per_batch) if sum(per_batch) else 0.0


class SweepWorkload(Workload):
    """``run_study(n_runs=1)`` over the scheme x cell grid, then ``to_markdown()``."""

    def __init__(self, scale: Scale, seed: int) -> None:
        self.scale = scale
        cells = (
            study.study_cells()
            if scale.sweep_cells is None
            else [get_scenario(name) for name in scale.sweep_cells]
        )
        self.cells = [jittered(cell, seed) for cell in cells]

    def set_up(self) -> None:
        self._sweep(self.cells[:1], duration=0.5)

    def run(self) -> ReadOutputs:
        return self._sweep(self.cells, self.scale.sweep_duration)

    def _sweep(self, cells: list[ScenarioSpec], duration: float) -> ReadOutputs:
        recorder = RecordingBackend(SerialBackend())
        result = study.run_study(cells=cells, n_runs=1, duration=duration, backend=recorder)
        markdown = result.to_markdown()
        return lambda: self._read(recorder, result, markdown, cells, duration)

    @staticmethod
    def _read(
        recorder: RecordingBackend,
        result: study.StudyResult,
        markdown: str,
        cells: list[ScenarioSpec],
        duration: float,
    ) -> Rep:
        schemes = len(study.study_schemes())
        rows = {
            (cell_study.cell.name, row["scheme"]): row["median_throughput_mbps"]
            for cell_study in result.cells
            for row in cell_study.rows()
        }
        dead = sorted(key for key, throughput in rows.items() if not throughput > 0)
        checks = {
            f"{len(cells)} cells x {schemes} schemes present": len(rows) == len(cells) * schemes,
            f"every row has throughput > 0 (not: {dead[:3]})": not dead,
            "every row is in the markdown": all(f"## {cell.name}" in markdown for cell in cells),
        }
        points = len(cells) * schemes
        return Rep(
            digest=hashlib.sha256(markdown.encode()).hexdigest(),
            work=points,
            sim_seconds=points * duration,
            results=recorder.results(),
            caps=recorder.caps(),
            batches=recorder.batches,
            counts={},
            checks=len(checks),
            problems=[name for name, ok in checks.items() if not ok],
            detail={"markdown_bytes": len(markdown)},
        )


class SimLongWorkload(Workload):
    """Six single simulations, each built then run."""

    def __init__(self, scale: Scale, seed: int) -> None:
        self.scale = scale
        self.cells = [jittered(get_scenario(name), seed) for name in metrics.SIM_LONG_CELLS]
        #: Told which cell comes next; the traced repetition labels its spans with it.
        self.on_cell: Callable[[Optional[str]], None] = lambda name: None

    def set_up(self) -> None:
        self._simulate([0.5] * len(self.cells))

    def run(self) -> ReadOutputs:
        return self._simulate(self.scale.sim_durations)

    def _simulate(self, durations: Sequence[float]) -> ReadOutputs:
        results = []
        for cell, duration in zip(self.cells, durations):
            self.on_cell(cell.name)
            results.append(cell.build(duration=duration).run())
        self.on_cell(None)
        return lambda: self._read(results, durations)

    def _read(self, results: list[Any], durations: Sequence[float]) -> Rep:
        events = {cell.name: r.events_processed for cell, r in zip(self.cells, results)}
        checks = {"every cell delivered data": all(r.total_bytes_received() > 0 for r in results)}
        return Rep(
            digest=sha256_json([simulation_fingerprint(r) for r in results]),
            work=sum(events.values()),
            sim_seconds=sum(durations),
            results=results,
            caps=[None] * len(results),
            batches=[],
            counts={},
            checks=len(checks),
            problems=[name for name, ok in checks.items() if not ok],
            detail={"events": events},
        )


def make_workload(name: str, scale: Scale, seed: int) -> Workload:
    if name == "design-serial":
        return DesignWorkload(scale, seed, pooled=False)
    if name == "design-pool":
        return DesignWorkload(scale, seed, pooled=True)
    if name == "sweep-smoke":
        return SweepWorkload(scale, seed)
    if name == "sim-long":
        return SimLongWorkload(scale, seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------
class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def calibrate(loops: int) -> float:
    """Seconds per iteration of a fixed pure-Python loop: how fast the host is now.

    The loop mixes what the simulator's hot path is made of — small-object
    allocation, slot access, float arithmetic, heap pushes and pops — so that
    it slows down with the workloads when a neighbour takes the core's
    resources; it touches nothing of ``src/``, so no change can speed it up.
    """
    start = time.perf_counter()
    heap: list[tuple[float, int, _Slot]] = []
    total = 0.0
    for i in range(loops):
        slot = _Slot(i, i * 0.5)
        heapq.heappush(heap, (slot.value % 97.0, i, slot))
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].value
    return (time.perf_counter() - start) / loops


def golden_preflight() -> list[str]:
    """Replay the six ``sim-long`` cells at canonical size against the goldens."""
    golden = load_golden()
    mismatches = []
    for name in metrics.SIM_LONG_CELLS:
        if cell_fingerprint(get_scenario(name)) != golden.get(name):
            mismatches.append(f"golden fingerprint mismatch: {name}")
    return mismatches


def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the largest reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


@dataclasses.dataclass
class Timing:
    """One timed stretch with the calibration readings around it."""

    wall: float
    cpu: float
    calibration: tuple[float, float]

    @property
    def host_factor(self) -> float:
        """Reference host speed over the host's speed during this stretch."""
        return REFERENCE_SECONDS_PER_LOOP / statistics.fmean(self.calibration)

    @property
    def reference_wall(self) -> float:
        """The wall seconds this stretch would have taken at reference speed."""
        return self.wall * self.host_factor

    @property
    def noisy(self) -> bool:
        before, after = self.calibration
        return abs(before - after) / max(before, after) > NOISY_CALIBRATION


def timed(run: Callable[[], Any], scale: Scale) -> tuple[Any, Timing]:
    """Run once between two calibration readings; returns what ``run`` returned."""
    before = calibrate(scale.calibration_loops)
    cpu = time.process_time()
    start = time.perf_counter()
    result = run()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    return result, Timing(wall, cpu, (before, calibrate(scale.calibration_loops)))


def measure_setup(name: str, args: argparse.Namespace, scale: Scale) -> list[Timing]:
    """Seconds from process start until a fresh process could begin its first
    timed repetition (imports, registry, golden preflight, warm-up, pool
    spawn), sampled in child processes so that every sample pays the imports."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--scale", args.scale,
        "--seed", str(args.seed),
        "--setup-only",
    ]  # fmt: skip
    return [
        timed(lambda: subprocess.run(command, check=True, stdout=subprocess.DEVNULL), scale)[1]
        for _ in range(scale.setup_samples)
    ]


def summary(samples: Sequence[float], unit: str) -> dict[str, Any]:
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": list(samples),
    }


def timing_summary(timings: Sequence[Timing]) -> dict[str, Any]:
    """Seconds at reference host speed, with the raw median kept beside them."""
    return {
        **summary([t.reference_wall for t in timings], "s"),
        "raw_value": statistics.median(t.wall for t in timings),
    }


def netsim_counts(rep: Rep) -> dict[str, float]:
    events = sorted((r.events_processed for r in rep.results), reverse=True)
    top = events[: max(1, -(-len(events) // 10))]
    return {
        "netsim.events": sum(events),
        "netsim.sims": len(events),
        "netsim.packets_sent": sum(s.packets_sent for r in rep.results for s in r.flow_stats),
        "netsim.retransmissions": sum(s.retransmissions for r in rep.results for s in r.flow_stats),
        "netsim.drops": sum(r.queue_drops for r in rep.results),
        "netsim.capped_sims": sum(
            cap is not None and r.events_processed >= cap for r, cap in zip(rep.results, rep.caps)
        ),
        "netsim.job_events_p50": statistics.median(events),
        "netsim.job_events_max": events[0],
        "netsim.top10_event_share": sum(top) / sum(events) if sum(events) else 0.0,
    }


def pickle_bytes_per_job(rep: Rep) -> tuple[float, float]:
    """Mean pickled size of a job and of a job result, the way a
    memory-isolated backend would ship them (whole batch, one message)."""
    jobs = sum(len(batch_jobs) for batch_jobs, _ in rep.batches)
    if jobs == 0:
        return 0.0, 0.0
    out = sum(len(pickle.dumps(prepare_jobs(batch_jobs))) for batch_jobs, _ in rep.batches)
    back = sum(len(pickle.dumps(results)) for _, results in rep.batches)
    return out / jobs, back / jobs


# ---------------------------------------------------------------------------
# One workload, start to finish
# ---------------------------------------------------------------------------
def run_workload(name: str, args: argparse.Namespace, span_records: list[dict[str, Any]]) -> dict[str, Any]:
    scale = SCALES[args.scale]
    notes: list[str] = []
    trace = bool(args.trace)

    setup = measure_setup(name, args, scale)

    workload = make_workload(name, scale, args.seed)
    problems = golden_preflight()
    attempted = len(metrics.SIM_LONG_CELLS)

    # -- end to end: tracing off ------------------------------------------------
    if args.reps is not None:
        min_reps, seconds = args.reps, 0.0
    else:
        min_reps, seconds = metrics.MIN_REPS, args.seconds
    first: Optional[Rep] = None
    timings: list[Timing] = []
    with workload.ready():
        measuring = time.perf_counter()
        while len(timings) < min_reps or time.perf_counter() - measuring < seconds:
            read_outputs, timing = timed(workload.run, scale)
            rep = read_outputs()
            timings.append(timing)
            if timing.noisy:
                before, after = timing.calibration
                notes.append(f"rep {len(timings)} noisy: calibration {before * 1e9:.0f} -> {after * 1e9:.0f} ns/loop")
            # Checked between repetitions, off the clock; only rep 1's results are kept.
            attempted += len(rep.results) + rep.checks
            problems += [f"rep {len(timings)}: {problem}" for problem in rep.problems]
            capped = netsim_counts(rep)["netsim.capped_sims"]
            if capped:
                problems.append(f"rep {len(timings)}: {capped} simulation(s) hit the event cap")
            if first is None:
                first = rep
            else:
                attempted += 1
                if rep.digest != first.digest:
                    problems.append(f"rep {len(timings)}: output digest differs from rep 1")
    assert first is not None

    layer: dict[str, Optional[float]] = {m.name: 0.0 for m in metrics.EXACT}
    layer.update({m.name: None for m in metrics.TRACED})
    layer.update(netsim_counts(first))
    layer.update(first.counts)
    layer["runner.jobs"] = sum(len(jobs) for jobs, _ in first.batches)
    layer["runner.width"] = workload.width
    readings = [reading for t in [*setup, *timings] for reading in t.calibration]
    layer["host.calib_loops_per_s"] = 1 / statistics.median(readings)
    layer["host.wall_raw_s"] = statistics.median(t.wall for t in timings)

    walls = [t.reference_wall for t in timings]
    end_to_end = {
        "wall_s": timing_summary(timings),
        "work_per_s": summary([first.work / wall for wall in walls], "1/s"),
        "simsec_per_s": summary([first.sim_seconds / wall for wall in walls], "1/s"),
        "setup_s": timing_summary(setup),
        "peak_rss_mb": summary([peak_rss_mb()], "MB"),
    }

    # -- per layer: one repetition under spans, one under cProfile ---------------
    if trace:
        traced_layer, traced_digest = trace_workload(
            name, workload, scale, args.seed, statistics.median(walls), span_records, notes
        )
        layer.update(traced_layer)
        attempted += 1
        if traced_digest != first.digest:
            problems.append("traced repetition's output digest differs from rep 1")

    return {
        "workload": name,
        "why": next(w.why for w in metrics.WORKLOADS if w.name == name),
        "output_digest": first.digest,
        "attempted": attempted,
        "failed": len(problems),
        "failed_share": len(problems) / attempted,
        "problems": problems,
        "notes": notes,
        "work_units": first.work,
        "sim_seconds": first.sim_seconds,
        "end_to_end": end_to_end,
        "per_layer": {m.name: {"value": layer[m.name], "unit": m.unit} for m in metrics.PER_LAYER},
        "detail": first.detail,
    }


def trace_workload(
    name: str,
    workload: Workload,
    scale: Scale,
    seed: int,
    untraced_wall: float,  # at reference host speed, like every ratio's other side here
    span_records: list[dict[str, Any]],
    notes: list[str],
) -> tuple[dict[str, Optional[float]], str]:
    """The traced passes — spans, then cProfile, then (pooled) a serial run.
    Returns the ``TRACED`` metrics and the span repetition's output digest."""
    # 0 stands for "this layer does not run here"; None for "could not be measured".
    layer: dict[str, Optional[float]] = {m.name: 0.0 for m in metrics.TRACED}
    layer["runner.speedup_vs_serial"] = 1.0

    # Worker CPU is only visible once the workers are reaped, so the traced
    # repetition gets a pool of its own, spawned (and warmed) here, closed after.
    children_before = children_cpu_seconds()
    tracer = spans.Tracer()
    if isinstance(workload, SimLongWorkload):
        workload.on_cell = lambda cell: setattr(tracer, "label", cell)

    def traced_run() -> ReadOutputs:
        with tracer.boundaries(), tracer.span("rep", spans.ROOT_LAYER):
            return workload.run()

    with workload.ready():
        read_outputs, span_timing = timed(traced_run, scale)
    rep = read_outputs()
    span_wall = span_timing.wall
    worker_cpu = children_cpu_seconds() - children_before if workload.pooled else span_timing.cpu
    span_records += tracer.as_records(name)
    for target in tracer.missing:
        notes.append(f"trace boundary not found, its metric is null: {target}")

    own = tracer.layer_self_seconds()
    missing = tracer.missing_layers()

    def self_seconds(span_layer: str) -> Optional[float]:
        return None if span_layer in missing else own.get(span_layer, 0.0)

    events = netsim_counts(rep)["netsim.events"]
    run_s = self_seconds("netsim.run")
    layer.update(
        {
            "netsim.build_s": self_seconds("netsim.build"),
            "netsim.run_s": run_s,
            "netsim.ns_per_event": None if run_s is None else run_s / events * 1e9,
            "scenarios.materialize_s": self_seconds("scenarios"),
            "core.evaluate_self_s": self_seconds("core.evaluate"),
            "core.search_self_s": self_seconds("core.search"),
            "runner.batch_s": None if "runner" in missing else tracer.layer_total_seconds("runner"),
            "runner.self_s": self_seconds("runner"),
            "experiments.self_s": self_seconds("experiments"),
            "analysis.markdown_s": self_seconds("analysis.markdown"),
            "bench.self_s": own[spans.ROOT_LAYER],
            "runner.worker_cpu_s": worker_cpu,
            "runner.idle_share": max(0.0, 1 - worker_cpu / (workload.width * span_wall)),
            "trace.span_overhead_share": span_timing.reference_wall / untraced_wall - 1,
        }
    )
    if isinstance(workload, SimLongWorkload) and run_s is not None:
        per_cell = tracer.label_self_seconds("netsim.run")
        for cell, count in rep.detail["events"].items():
            layer[f"netsim.ns_per_event.{cell}"] = per_cell[cell] / count * 1e9
    try:
        layer["runner.job_pickle_bytes"], layer["runner.result_pickle_bytes"] = pickle_bytes_per_job(rep)
    except (pickle.PicklingError, ValueError, AttributeError, TypeError) as exc:
        layer["runner.job_pickle_bytes"] = layer["runner.result_pickle_bytes"] = None
        notes.append(f"batch could not be pickled, runner.*_pickle_bytes are null: {exc!r}")
    batch_walls = [end - start for _, span_layer, start, end, _, _ in tracer.spans if span_layer == "runner"]
    if batch_walls:
        notes.append(
            f"largest run_batch span: {max(batch_walls):.3f} s, "
            f"{max(batch_walls) / span_wall:.0%} of the traced repetition"
        )
    accounted = sum(own.values())
    notes.append(
        f"span self times sum to {accounted:.3f} s of {span_wall:.3f} s traced wall "
        f"({accounted / span_wall:.1%})"
    )

    with workload.ready():
        shares, profile_timing = timed(lambda: spans.profile_shares(workload.run), scale)
    layer.update(shares)
    layer["trace.profile_overhead_share"] = profile_timing.reference_wall / untraced_wall - 1

    if workload.pooled:
        notes.append("prof.* shares cover the coordinating process only; workers are not profiled")
        with DesignWorkload(scale, seed, pooled=False).ready() as serial:
            read_serial, serial_timing = timed(serial.run, scale)
        match = read_serial().detail["tree_token"] == rep.detail["tree_token"]
        layer["runner.speedup_vs_serial"] = serial_timing.reference_wall / untraced_wall
        layer["core.pool_serial_tree_match"] = float(match)
        notes.append(
            f"serial design run of the same inputs: {serial_timing.wall:.3f} s, final tree "
            f"{'equal to' if match else 'DIFFERENT from'} the pooled run's (recorded, not a failure)"
        )
    return layer, rep.digest


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def number(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.4g}" if abs(value) >= 1000 else f"{value:.4g}"


def print_report(result: dict[str, Any], trace: bool, baseline: Optional[dict[str, Any]]) -> None:
    name = result["workload"]
    print(f"== {name}: {result['why']}")
    for metric in metrics.END_TO_END:
        entry = result["end_to_end"][metric.name]
        spread = f"  (min {number(entry['min'])}  max {number(entry['max'])}  n {entry['n']})"
        if "raw_value" in entry:
            spread += f"  at reference host speed; raw {number(entry['raw_value'])} s"
        print(f"{name:14s} {metric.name:44s} {number(entry['value']):>14s} {metric.unit}{spread}")
    print(
        f"{name:14s} {'failed_share':44s} {number(result['failed_share']):>14s} share"
        f"  ({result['failed']} of {result['attempted']} operations)"
    )
    for metric in metrics.PER_LAYER if trace else metrics.EXACT:
        value = result["per_layer"][metric.name]["value"]
        print(f"{name:14s} {metric.name:44s} {number(value):>14s} {metric.unit}")
    match = "n/a (no baseline for this seed and scale)"
    if baseline is not None and name in baseline.get("workloads", {}):
        match = str(baseline["workloads"][name]["output_digest"] == result["output_digest"]).lower()
    print(f"{name:14s} {'output_digest':44s} {result['output_digest']}")
    print(f"{name:14s} {'digest_match':44s} {match}")
    for line in result["problems"]:
        print(f"{name:14s} FAILED: {line}")
    for line in result["notes"]:
        print(f"{name:14s} note: {line}")


def result_line(result: dict[str, Any], trace: bool) -> str:
    source = result["per_layer"] if trace else result["end_to_end"]
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m.name: {"value": source[m.name]["value"], "unit": m.unit} for m in wanted},
        }
    )


def layers_markdown(document: dict[str, Any]) -> str:
    """``bench/LAYERS.md``: the traced run's per-workload layer table."""
    names = list(document["workloads"])
    lines = [
        "# Layer table",
        "",
        f"Generated by `python3 bench/run.py --trace 1 --seed {document['seed']} --markdown bench/LAYERS.md` "
        f"(scale `{document['scale']}`, {document['host']['cpus']} CPUs, Python {document['host']['python']}).",
        "Times are self times from one repetition under boundary spans; `prof.*` are shares of",
        "cProfile self time from another; counts are exact.  `0` also stands for “this layer does",
        "not run on this workload”.  See `bench/README.md` for which end-to-end metric each row should move.",
        "",
        "| metric | unit | " + " | ".join(names) + " |",
        "|---|---|" + "---:|" * len(names),
    ]
    rows = [(m.name, m.unit, "end_to_end") for m in metrics.END_TO_END]
    rows += [(m.name, m.unit, "per_layer") for m in metrics.PER_LAYER]
    for name, unit, group in rows:
        cells = [number(document["workloads"][w][group].get(name, {}).get("value")) for w in names]
        lines.append(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
    lines += ["", "## Notes", ""]
    for workload in names:
        for note in document["workloads"][workload]["notes"]:
            lines.append(f"- `{workload}`: {note}")
    return "\n".join(lines) + "\n"


def load_baseline(args: argparse.Namespace) -> Optional[dict[str, Any]]:
    path = BENCH_DIR / "BASELINE.json"
    if not path.exists():
        return None
    baseline = json.loads(path.read_text())
    if baseline.get("seed") != args.seed or baseline.get("scale") != args.scale:
        return None
    return baseline


def main(argv: Optional[Sequence[str]] = None) -> int:
    names = [w.name for w in metrics.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0, help="input seed (1 is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--reps", type=int, default=None, help="exactly this many untraced repetitions")
    parser.add_argument("--scale", choices=sorted(SCALES), default="default")
    parser.add_argument("--json", type=Path, default=None, help="write the full result document here")
    parser.add_argument("--markdown", type=Path, default=None, help="write the layer table here")
    parser.add_argument("--contract", action="store_true", help="print BENCHMARK.json and exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.contract:
        print(json.dumps(metrics.contract(), indent=2))
        return 0
    if args.setup_only:
        workload = make_workload(args.workload, SCALES[args.scale], args.seed)
        mismatches = golden_preflight()
        with workload.ready():
            return 1 if mismatches else 0

    if args.workload == "all":
        document, lines = run_each_in_a_child(names, args)
    else:
        span_records: list[dict[str, Any]] = []
        result = run_workload(args.workload, args, span_records)
        print_report(result, bool(args.trace), load_baseline(args))
        if args.trace:
            spans.dump_spans(span_records, BENCH_DIR / "out" / f"trace-{args.workload}.json")
        document = {
            "schema": 1,
            "seed": args.seed,
            "scale": args.scale,
            "trace": bool(args.trace),
            "sizes": dataclasses.asdict(SCALES[args.scale]),
            "host": {"cpus": available_workers(), "python": platform.python_version()},
            "workloads": {args.workload: result},
        }
        lines = [result_line(result, bool(args.trace))]
    if args.json is not None:
        args.json.write_text(json.dumps(document, indent=1) + "\n")
    if args.markdown is not None:
        args.markdown.write_text(layers_markdown(document))
    # The driver reads the last line of stdout.
    sys.stdout.flush()
    print("\n".join(lines))
    return 0 if all(r["failed"] == 0 for r in document["workloads"].values()) else 1


def run_each_in_a_child(names: Sequence[str], args: argparse.Namespace) -> tuple[dict[str, Any], list[str]]:
    """``--workload all``: one fresh process per workload, exactly as the
    driver runs them, so ``peak_rss_mb`` and ``setup_s`` are each workload's
    own; the children's documents are merged into one."""
    document: dict[str, Any] = {}
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            part = Path(scratch) / f"{name}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--scale", args.scale,
                "--json", str(part),
            ]  # fmt: skip
            if args.reps is not None:
                command += ["--reps", str(args.reps)]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if not part.exists():
                sys.exit(proc.returncode or 1)  # the child crashed; its traceback is on stderr
            *report, last = proc.stdout.splitlines()
            print("\n".join(report), flush=True)
            lines.append(last)
            child = json.loads(part.read_text())
            if not document:
                document = child
            else:
                document["workloads"].update(child["workloads"])
    return document, lines


if __name__ == "__main__":
    sys.exit(main())
