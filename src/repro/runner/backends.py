"""Execution backends: how a batch of simulation jobs actually runs.

The paper parallelized the design phase's specimen evaluations across many
cores (§4.3); this module provides that execution layer as a pluggable
interface so the evaluator, the optimizer's candidate fan-out and the figure
harnesses can share it:

* :class:`SerialBackend` (the default everywhere) runs each job in-process,
  one after the other.
* :class:`ProcessPoolBackend` ships jobs to a pool of worker processes.
  A job pickles by construction: it names its protocols (a worker loads a
  named rule table itself) or carries the design loop's candidate table,
  of which each worker gets an isolated copy.  It is
  the only parallel backend, and it has one recovery rule: a pool that
  breaks (a worker died) is rebuilt once, and a second break in the same
  batch finishes the rest of it in this process, with a warning.

Backends preserve submission order: ``run_batch(jobs)[i]`` is always the
result of ``jobs[i]``, and every backend executes a job the same way
(:func:`repro.runner.jobs.run_sim_job`), so what a batch yields does not
depend on where it ran.  A :class:`~repro.runner.jobs.SimJob` is a pure
function of its pickled inputs, so re-running a lost chunk — on a rebuilt
pool or in this process — reproduces its results bit-for-bit (pinned by the
golden-parity crash tests in ``tests/test_resilience.py``).
"""

from __future__ import annotations

import logging
import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Optional, Sequence

from repro.runner.faults import active_fault_plan, mark_worker_process, worker_fault_plan
from repro.runner.jobs import SimJob, SimJobResult, chunk_result_mismatch, run_sim_job

logger = logging.getLogger(__name__)


def _execute_job_chunk(jobs: Sequence[SimJob], attempt: int = 0) -> list[SimJobResult]:
    """Worker entry point for one chunk: many jobs, one IPC round trip.

    Module-level so it pickles by reference.  The chunk is pickled as a
    single object, so jobs sharing a rule table serialize that table once
    per chunk, and the results travel back as one message.  A job that
    raises is re-raised with a note naming it.  ``attempt`` (0, or 1 on a
    rebuilt pool) keys the crash harness, armed in pool workers only.
    """
    plan = worker_fault_plan()
    results = []
    for job in jobs:
        if plan is not None:
            plan.apply(job.job_id, attempt)
        try:
            results.append(run_sim_job(job))
        except Exception as exc:
            exc.add_note(f"job {job.job_id}")
            raise
    return results


def available_workers() -> int:
    """CPUs usable by this process (respects affinity masks where available)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def prepare_jobs(jobs: Sequence[SimJob]) -> list[SimJob]:
    """Make a batch safe to ship across a process boundary.

    Every job pickles by construction (its protocols are named, not built),
    so the one step is the rule tables: each distinct ``tree`` is replaced
    by a statistics-free copy (the JSON serialization round trip), so stale
    samples never cross.
    """
    # Imported here rather than at module scope: repro.core's package
    # __init__ imports the evaluator, which imports this package.
    from repro.core.serialization import whisker_tree_from_dict, whisker_tree_to_dict

    clean_trees: dict[int, object] = {}
    prepared = []
    for job in jobs:
        if job.tree is not None:
            key = id(job.tree)
            if key not in clean_trees:
                clean_trees[key] = whisker_tree_from_dict(
                    whisker_tree_to_dict(job.tree)
                )
            job = replace(job, tree=clean_trees[key])
        prepared.append(job)
    return prepared


class ExecutionBackend(ABC):
    """Runs batches of independent :class:`SimJob`\\ s."""

    #: Inert: bench/run.py's ``RecordingBackend`` copies it from the backend it
    #: wraps, and ``bench/`` is frozen (ROADMAP item 1 drops both).
    shares_memory = False

    @abstractmethod
    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimJobResult]:
        """Execute every job and return results in submission order."""

    def close(self) -> None:
        """Release any resources (worker processes); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process, sequential execution — the default."""

    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimJobResult]:
        return [run_sim_job(job) for job in jobs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialBackend()"


class ProcessPoolBackend(ExecutionBackend):
    """Fan jobs out over a pool of worker processes, a chunk at a time.

    Each batch goes through :func:`prepare_jobs` first.  The batch is cut
    into four runs of consecutive jobs per worker, and each chunk is one
    worker task — one pickle of the jobs, one result message back — which
    amortizes IPC over sub-100 ms jobs and still balances the load.

    One recovery rule, with a budget per batch: a broken pool (a worker
    died) is rebuilt once and only the chunks without a result are
    resubmitted (``pool_rebuilds`` becomes 1); a second break finishes those
    chunks in this process, sets ``degraded`` and logs a warning.  A design
    run that dies anyway resumes from its last epoch checkpoint.

    A job that raises in a worker is re-raised here as its own exception,
    with a note naming the job: a deterministic job fails the same way every
    time, so it is not retried.  The chunks not yet started are cancelled
    and the pool stays usable.  A chunk whose results do not match its jobs
    is a :class:`RuntimeError`.

    The pool is created lazily and reused across batches; call :meth:`close`
    (or use the backend as a context manager) to reap the workers.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers if max_workers is not None else available_workers()
        self.pool_rebuilds = 0
        self.degraded = False
        self._executor: Optional[ProcessPoolExecutor] = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Hands each worker the installed crash plan (usually none);
            # crashes must never fire in the submitting process.
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=mark_worker_process,
                initargs=(active_fault_plan(),),
            )
        return self._executor

    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimJobResult]:
        # The budget is per batch: a long-lived pool that degraded once must
        # not run every later batch in the submitting process.
        self.pool_rebuilds = 0
        self.degraded = False
        prepared = prepare_jobs(jobs)
        if not prepared:
            return []
        size = max(1, -(-len(prepared) // (self.max_workers * 4)))
        chunks = [prepared[start : start + size] for start in range(0, len(prepared), size)]
        done: dict[int, list[SimJobResult]] = {}
        for attempt in (0, 1):
            try:
                self._run_on_pool(chunks, done, attempt)
                break
            except BrokenProcessPool:
                self.close()  # the next submission builds a fresh pool
                self.pool_rebuilds = 1
        else:  # the pool broke twice
            self.degraded = True
            left = [index for index in range(len(chunks)) if index not in done]
            logger.warning(
                "process pool broke twice in one batch: finishing its last %d "
                "of %d jobs in this process",
                sum(len(chunks[index]) for index in left),
                len(prepared),
            )
            for index in left:
                done[index] = _execute_job_chunk(chunks[index])
        return [result for index in range(len(chunks)) for result in done[index]]

    def _run_on_pool(
        self, chunks: list[list[SimJob]], done: dict[int, list[SimJobResult]], attempt: int
    ) -> None:
        """Run every chunk without a result on the pool, filling ``done``.

        Raises :class:`BrokenProcessPool` when a worker dies.  On any
        exception the chunks no worker has started are cancelled, or
        :meth:`close` would sit through the rest of the batch.
        """
        executor = self._ensure_executor()
        pending = {
            executor.submit(_execute_job_chunk, chunk, attempt): index
            for index, chunk in enumerate(chunks)
            if index not in done
        }
        try:
            for future in as_completed(pending):
                index = pending[future]
                results = future.result()
                mismatch = chunk_result_mismatch(chunks[index], results)
                if mismatch is not None:
                    raise RuntimeError(f"chunk {index} of the batch: {mismatch}")
                done[index] = results
        except BaseException:
            for future in pending:
                future.cancel()
            raise

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessPoolBackend(max_workers={self.max_workers})"
