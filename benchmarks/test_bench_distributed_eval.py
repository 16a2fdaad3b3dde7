"""Infrastructure benchmark: the distributed queue backend vs serial.

The crash-safe coordinator (:class:`~repro.runner.QueueBackend`) adds
framing, leasing and socket round trips on top of what a process pool
does; this benchmark measures what that machinery costs on the
evaluator's hottest path — scoring a candidate-action neighbourhood
(``Evaluator.evaluate_many``) — against the bit-identical serial
baseline, with two real worker subprocesses on loopback.

The workload is sized for two workers: on a ≥ 3-core machine (two workers
plus the coordinator pump) the distributed run must beat serial by at least
1.3× — if leasing overhead ever eats the parallelism, this is the tripwire,
and the only throughput check ``QueueBackend`` has (the repo benchmark,
``bench/``, has no queue workload yet).  On smaller machines the speedup
assertion is skipped but both paths still run and must agree on every score.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.action import Action
from repro.core.config import ConfigRange, ParameterRange
from repro.core.evaluator import Evaluator, EvaluatorSettings
from repro.core.objective import Objective
from repro.core.whisker_tree import WhiskerTree
from repro.runner import QueueBackend, SerialBackend, available_workers

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKERS = 2
N_CANDIDATES = 6


def _design_range() -> ConfigRange:
    return ConfigRange(
        link_speed_bps=ParameterRange(8e6, 16e6),
        rtt_seconds=ParameterRange.exact(0.1),
        n_senders=ParameterRange.exact(2),
        mean_on_seconds=ParameterRange.exact(3.0),
        mean_off_seconds=ParameterRange.exact(1.0),
    )


def _settings() -> EvaluatorSettings:
    return EvaluatorSettings(num_specimens=2, sim_duration=6.0, seed=3)


def _candidates() -> list[WhiskerTree]:
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


def _spawn_worker(address: str) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src if "PYTHONPATH" not in env else src + os.pathsep + env["PYTHONPATH"]
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.runner.distributed", "worker", address],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def test_distributed_neighborhood_evaluation_speedup(bench_once):
    serial_scores, serial_elapsed = _run(SerialBackend())

    backend = QueueBackend(chunk_jobs=1, worker_wait=120.0)
    workers = [_spawn_worker(backend.address) for _ in range(WORKERS)]
    try:
        # Warm outside the timed region: workers import the simulator and
        # register on their first batch, and a design run amortizes that
        # over hundreds of batches — steady-state throughput is what the
        # backend choice costs.
        _run(backend)
        queue_scores, queue_elapsed = bench_once(_run, backend)
    finally:
        backend.close()
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.wait(timeout=15)

    speedup = serial_elapsed / queue_elapsed if queue_elapsed > 0 else float("inf")
    print(
        f"\nserial {serial_elapsed:.2f}s, {WORKERS}-worker queue {queue_elapsed:.2f}s "
        f"({speedup:.2f}x, {N_CANDIDATES} candidates x {_settings().num_specimens} "
        f"specimens, {available_workers()} CPUs available)"
    )

    # Bit-identical scheduling: leases, framing and the cache layer must
    # never change what gets computed.
    assert queue_scores == serial_scores
    assert not backend.degraded

    if available_workers() <= WORKERS:
        pytest.skip(
            f"only {available_workers()} CPUs available; speedup assertion "
            f"needs more than {WORKERS} (workers + coordinator pump)"
        )
    assert speedup >= 1.3, (
        f"expected >= 1.3x speedup with {WORKERS} distributed workers, "
        f"got {speedup:.2f}x — coordinator overhead is eating the parallelism"
    )
