"""Infrastructure benchmark: parallel vs serial candidate evaluation.

The paper's design phase evaluated candidate rule tables across many cores;
this benchmark measures what the :class:`~repro.runner.ProcessPoolBackend`
buys over the bit-identical :class:`~repro.runner.SerialBackend` on the
evaluator's hottest path — scoring a whole candidate-action neighbourhood
(``Evaluator.evaluate_many``) over the specimen set.

The workload is sized so each job is a few hundred milliseconds of pure
Python simulation: large enough that process-pool IPC is noise, small enough
that the serial baseline stays friendly to CI.  On a ≥ 4-core machine the
4-worker pool must come in at least 2× faster than serial; on smaller
machines the speedup assertion is skipped (there is nothing to parallelize
onto) but both paths still run and must agree on every score.

A run with ``BENCH_LABEL`` set appends one entry (serial seconds, pool
seconds, speedup) under that label to the ``BENCH_parallel_eval.json``
trajectory at the repository root (override the path with
``BENCH_PARALLEL_EVAL_JSON``) — the same writer as ``BENCH_simulator.json``,
so the CI bench job can publish both trajectories as one artifact.
"""

import os
import time
from pathlib import Path

import pytest

from repro.core.action import Action
from repro.core.config import ConfigRange, ParameterRange
from repro.core.evaluator import Evaluator, EvaluatorSettings
from repro.core.objective import Objective
from repro.core.whisker_tree import WhiskerTree
from repro.runner import ProcessPoolBackend, SerialBackend, available_workers

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKERS = 4
N_CANDIDATES = 8

#: Measurement recorded by the test, flushed by the module fixture below.
_RESULT: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _write_trajectory():
    """Append this run's measurement to the parallel-eval trajectory file."""
    yield
    if not _RESULT:
        return
    from test_bench_simulator_speed import append_trajectory_entry

    path = os.environ.get("BENCH_PARALLEL_EVAL_JSON", REPO_ROOT / "BENCH_parallel_eval.json")
    append_trajectory_entry(Path(path), _RESULT)


def _design_range() -> ConfigRange:
    return ConfigRange(
        link_speed_bps=ParameterRange(8e6, 16e6),
        rtt_seconds=ParameterRange.exact(0.1),
        n_senders=ParameterRange.exact(2),
        mean_on_seconds=ParameterRange.exact(3.0),
        mean_off_seconds=ParameterRange.exact(1.0),
    )


def _settings() -> EvaluatorSettings:
    return EvaluatorSettings(num_specimens=4, sim_duration=6.0, seed=3)


def _candidates() -> list[WhiskerTree]:
    # A neighbourhood-like spread of candidate tables (independent by
    # construction: same specimens, same seeds).
    return [
        WhiskerTree(default_action=Action(1.0, 1.0 + 0.1 * i, 0.05 * (i + 1)))
        for i in range(N_CANDIDATES)
    ]


def _run(backend) -> tuple[list[float], float]:
    evaluator = Evaluator(
        _design_range(), Objective.proportional(1.0), _settings(), backend=backend
    )
    start = time.perf_counter()
    results = evaluator.evaluate_many(_candidates(), training=False)
    elapsed = time.perf_counter() - start
    return [r.score for r in results], elapsed


def test_parallel_neighborhood_evaluation_speedup(benchmark):
    serial_scores, serial_elapsed = _run(SerialBackend())

    with ProcessPoolBackend(max_workers=WORKERS) as backend:
        # Warm the pool outside the timed region: a design run reuses one
        # pool across hundreds of batches, so steady-state throughput — not
        # the one-time worker startup — is what the backend choice costs.
        _run(backend)
        pool_scores, pool_elapsed = benchmark.pedantic(
            _run, args=(backend,), rounds=1, iterations=1
        )

    speedup = serial_elapsed / pool_elapsed if pool_elapsed > 0 else float("inf")
    print(
        f"\nserial {serial_elapsed:.2f}s, {WORKERS}-worker pool {pool_elapsed:.2f}s "
        f"({speedup:.2f}x, {N_CANDIDATES} candidates x {_settings().num_specimens} specimens, "
        f"{available_workers()} CPUs available)"
    )
    _RESULT.update(
        {
            "workers": WORKERS,
            "cpus_available": available_workers(),
            "jobs": N_CANDIDATES * _settings().num_specimens,
            "serial_seconds": round(serial_elapsed, 6),
            "pool_seconds": round(pool_elapsed, 6),
            "speedup": round(speedup, 3),
        }
    )

    # Determinism is non-negotiable regardless of core count.
    assert pool_scores == serial_scores

    if available_workers() < WORKERS:
        pytest.skip(
            f"only {available_workers()} CPUs available; "
            f"speedup assertion needs {WORKERS}"
        )
    assert speedup >= 2.0, (
        f"expected >= 2x speedup with {WORKERS} workers, got {speedup:.2f}x"
    )

