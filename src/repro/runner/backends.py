"""Execution backends: how a batch of simulation jobs actually runs.

The paper parallelized the design phase's specimen evaluations across many
cores (§4.3); this module provides that execution layer as a pluggable
interface so the evaluator, the optimizer's candidate fan-out and the figure
harnesses can share it:

* :class:`SerialBackend` (the default everywhere) runs each job in-process,
  one after the other.
* :class:`ProcessPoolBackend` ships picklable jobs to a pool of worker
  processes, which operate on isolated copies of the rule table.  It is
  the only parallel backend, and it is fault tolerant: a chunk lost to a
  worker crash, hang, exception or corrupted result is retried as its
  :class:`~repro.runner.resilience.RetryPolicy` allows, then bisected until
  the failure is pinned on a single job.

Backends preserve submission order: ``run_batch(jobs)[i]`` is always the
result of ``jobs[i]``, and every backend executes a job the same way
(:func:`repro.runner.jobs.run_sim_job`): a training-mode job starts from
zeroed statistics and returns its own per-whisker usage summary in the
result, which the caller folds — nothing is accumulated in place, so what a
batch yields does not depend on where it ran.  Determinism under retry: a
:class:`~repro.runner.jobs.SimJob` is a pure function of its pickled inputs,
so re-executing a lost chunk reproduces the original results bit-for-bit —
the pool's results match :class:`SerialBackend`'s no matter how many faults
were survived along the way (pinned by the golden-parity chaos tests in
``tests/test_resilience.py``).
"""

from __future__ import annotations

import os
import pickle
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Optional, Sequence

from repro.runner.jobs import SimJob, SimJobResult, chunk_result_mismatch, run_sim_job
from repro.runner.resilience import (
    BatchEntry,
    Clock,
    JobFailure,
    MonotonicClock,
    PoisonJobError,
    RetryPolicy,
    _WorkItem,
    record_failure,
    run_item_serially,
)


def _execute_job_chunk(jobs: Sequence[SimJob], attempt: int = 0) -> list[SimJobResult]:
    """Worker entry point for one chunk: many jobs, one IPC round trip.

    Module-level so it pickles by reference.  The chunk is pickled as a
    single object, so jobs sharing a rule table serialize that table once
    per chunk instead of once per job, and the results travel back as one
    message.

    ``attempt`` is the number of times this chunk has already been tried
    (:class:`ProcessPoolBackend` increments it on resubmission); it keys the deterministic fault-injection harness, which
    fires only inside armed worker processes (see
    :func:`repro.runner.faults.worker_fault_plan`).
    """
    from repro.runner.faults import worker_fault_plan

    plan = worker_fault_plan()
    results = []
    for job in jobs:
        if plan is not None:
            plan.apply_before_run(job.job_id, attempt)
        result = run_sim_job(job)
        if plan is not None:
            result = plan.apply_after_run(job.job_id, attempt, result)
        results.append(result)
    return results


def available_workers() -> int:
    """CPUs usable by this process (respects affinity masks where available)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_factories_picklable(jobs: Sequence[SimJob]) -> None:
    """Fail fast, with a clear error, on factories that cannot ship.

    Without this, a closure ``protocol_factory`` (e.g. a lambda closing
    over a rule table) dies deep inside the executor with a bare pickle
    traceback — after workers have already been spawned.  Each distinct
    factory is probed once per batch.
    """
    probed: set[int] = set()
    for job in jobs:
        factory = job.protocol_factory
        if factory is None or id(factory) in probed:
            continue
        probed.add(id(factory))
        try:
            pickle.dumps(factory)
        except Exception as exc:
            raise ValueError(
                f"protocol_factory {factory!r} (job {job.job_id}) is not "
                "picklable, so it cannot cross a process boundary: "
                "closures and lambdas do not pickle.  Use a module-level "
                "callable (e.g. the protocol class), describe the scheme "
                "by its rule table (tree=...) or a registered scenario "
                "(scenario=...), or run on SerialBackend."
            ) from exc


def prepare_jobs(jobs: Sequence[SimJob]) -> list[SimJob]:
    """Make a batch safe to ship across a process boundary.

    Factories are probed for picklability, scenario *names* are resolved
    against the submitting process's registry (a worker only has the
    built-in cells), and each distinct rule table is replaced by a
    statistics-free copy via the JSON serialization round trip, so stale
    sample lists never cross the process boundary.
    """
    # Imported here rather than at module scope: repro.core's package
    # __init__ imports the evaluator, which imports this package.
    from repro.core.serialization import whisker_tree_from_dict, whisker_tree_to_dict

    check_factories_picklable(jobs)
    clean_trees: dict[int, object] = {}
    prepared = []
    for job in jobs:
        if isinstance(job.scenario, str):
            # Resolve names against the *submitting* process's registry:
            # a worker only has the built-in cells, so a runtime-registered
            # name would die there with a bare KeyError.  (Unknown names
            # also fail fast here, before any worker is spawned.)
            from repro.scenarios import get_scenario

            job = replace(job, scenario=get_scenario(job.scenario))
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

    Jobs must be picklable: rule-table jobs always are; ``protocol_factory``
    jobs require a module-level factory (a protocol class qualifies — a
    closure does not).  Before shipping, each distinct tree in the batch is
    replaced by a statistics-free copy (via the JSON serialization round
    trip) so stale sample lists never cross the process boundary.

    Submission is *chunked*: the batch is cut into runs of ``chunk_jobs``
    consecutive jobs and each chunk is one worker task — one pickle of the
    jobs (shared rule tables serialize once per chunk), one simulation loop
    in the worker, one result message back.  That amortizes IPC for the
    sub-100 ms jobs the flattened simulator produces, where per-job dispatch
    overhead would otherwise eat the parallel speedup.  Results stream back
    per chunk as workers finish and are reassembled into submission order.
    ``chunk_jobs=None`` (the default) targets four chunks per worker for
    load balance; pass an explicit value to trade balance against IPC
    (bigger chunks = fewer, larger messages).

    The pool survives worker crashes, hangs and bad results:

    * a chunk lost to a pool break, timeout, exception or corrupt result is
      retried (after deterministic backoff) up to ``retry.max_attempts``
      times; chunks still in flight when the pool breaks are resubmitted
      without being charged an attempt of their own beyond the shared one;
    * a chunk that exhausts its attempts is **bisected** and each half
      retried afresh, recursively, until the failure is pinned on a single
      job — the poison job — which becomes a :class:`JobFailure`;
    * every pool break or timeout kill rebuilds the pool; after
      ``retry.max_pool_rebuilds`` rebuilds within one batch the backend
      *degrades*: the rest of that batch runs serially in this process
      (fault injection stays off there — it models worker infrastructure,
      not the math).  The budget is per batch — the next ``run_batch``
      starts on a fresh pool — and :attr:`degraded` reports whether the
      last batch degraded;
    * ``on_failure="raise"`` (default) raises :class:`PoisonJobError` naming
      every permanently failed job once the rest of the batch has been
      driven to completion; ``on_failure="return"`` instead places the
      :class:`JobFailure` in that job's result slot, for callers prepared
      to handle partial batches.

    ``retry=None`` (the default) is ``RetryPolicy(max_attempts=1)``: no
    retries, but a failing chunk is still bisected, so the error names the
    *job* that failed rather than the chunk that carried it.

    The pool is created lazily on first use and reused across batches;
    call :meth:`close` (or use the backend as a context manager) to reap the
    workers.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        chunk_jobs: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        on_failure: str = "raise",
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if chunk_jobs is not None and chunk_jobs <= 0:
            raise ValueError("chunk_jobs must be positive")
        if on_failure not in ("raise", "return"):
            raise ValueError("on_failure must be 'raise' or 'return'")
        self.max_workers = max_workers if max_workers is not None else available_workers()
        self.chunk_jobs = chunk_jobs
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=1)
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.on_failure = on_failure
        self.pool_rebuilds = 0
        self.degraded = False
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # The initializer arms fault injection (a no-op unless a
            # FaultPlan is installed) and, more importantly, marks the
            # process as a *worker*: injected faults must never fire in the
            # submitting process or in serial fallback paths.
            from repro.runner.faults import mark_worker_process

            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers, initializer=mark_worker_process
            )
        return self._executor

    def _rebuild_pool(self) -> None:
        """Tear the executor down hard and count the rebuild.

        Used for both break (workers already dead) and timeout (a worker is
        alive but hung — it must be terminated, or ``shutdown`` would block
        on it forever).
        """
        self.pool_rebuilds += 1
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            if process.is_alive():
                process.terminate()
        executor.shutdown(wait=False, cancel_futures=True)
        if self.pool_rebuilds > self.retry.max_pool_rebuilds:
            self.degraded = True

    def _chunk_size(self, n_jobs: int) -> int:
        if self.chunk_jobs is not None:
            return self.chunk_jobs
        # Four chunks per worker keeps the pool balanced when job durations
        # vary while still amortizing IPC over several jobs per task.
        return max(1, -(-n_jobs // (self.max_workers * 4)))

    # -- the batch loop ------------------------------------------------------
    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimJobResult]:
        # The rebuild budget is per batch: a long-lived pool that degraded
        # once must not run every later batch in the submitting process.
        self.pool_rebuilds = 0
        self.degraded = False
        prepared = prepare_jobs(jobs)
        if not prepared:
            return []
        chunk = self._chunk_size(len(prepared))
        queue: list[_WorkItem] = [
            _WorkItem(start, tuple(prepared[start : start + chunk]))
            for start in range(0, len(prepared), chunk)
        ]
        results: list[Optional[BatchEntry]] = [None] * len(prepared)
        failures: list[JobFailure] = []
        solo_queue: list[_WorkItem] = []
        retry_queue: list[_WorkItem] = []
        timeout = self.retry.chunk_timeout
        pending: dict[Future[list[SimJobResult]], tuple[_WorkItem, Optional[float]]]
        pending = {}

        def charge(item: _WorkItem, kind: str, message: str) -> None:
            record_failure(
                item,
                kind,
                message,
                max_attempts=self.retry.max_attempts,
                results=results,
                failures=failures,
                retry_queue=retry_queue,
                solo_queue=solo_queue,
            )

        def consume(future: Future[list[SimJobResult]]) -> bool:
            """Land one finished chunk; ``True`` if it reports a broken pool."""
            item, _deadline = pending.pop(future)
            try:
                chunk_results = future.result()
                mismatch = chunk_result_mismatch(list(item.jobs), chunk_results)
            except BrokenProcessPool as exc:
                charge(item, "crash", repr(exc))
                return True
            except Exception as exc:
                charge(item, "exception", repr(exc))
                return False
            if mismatch is not None:
                charge(
                    item,
                    "corrupt",
                    f"{mismatch} (batch offset {item.start}) — result rejected "
                    "and the chunk will be re-executed",
                )
                return False
            for offset, result in enumerate(chunk_results):
                results[item.start + offset] = result
            return False

        try:
            while queue or pending or solo_queue:
                if self.degraded:
                    # pending is always drained before degradation flips on.
                    for item in queue + solo_queue:
                        run_item_serially(item, results, failures)
                    break
                if not queue and not pending and solo_queue:
                    # Solo confirmation: one suspect at a time, nothing else
                    # in flight, so a failure is unambiguously attributable.
                    # (Its own retries keep it alone until it passes or is
                    # condemned.)
                    queue.append(solo_queue.pop(0))

                executor = self._ensure_executor()
                try:
                    for index, item in enumerate(queue):
                        future = executor.submit(
                            _execute_job_chunk, list(item.jobs), item.attempt
                        )
                        deadline = (
                            self.clock.now() + timeout if timeout is not None else None
                        )
                        pending[future] = (item, deadline)
                except BrokenProcessPool:
                    # The pool broke between waves (a crash we had not
                    # consumed yet).  Requeue the unsubmitted tail; in-flight
                    # futures are handled by the normal broken-pool wave
                    # below.  With nothing in flight there is no wave to
                    # detect the break, so rebuild here or the next iteration
                    # would resubmit to the same broken executor forever.
                    queue = queue[index:]
                    if not pending:
                        self._rebuild_pool()
                        continue
                else:
                    queue = []

                wait_timeout: Optional[float] = None
                deadlines = [dl for _, dl in pending.values() if dl is not None]
                if deadlines:
                    wait_timeout = max(0.0, min(deadlines) - self.clock.now())
                done, _ = wait(
                    set(pending), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )

                pool_broken = False
                for future in done:
                    pool_broken |= consume(future)
                # A pool break completes the remaining futures exceptionally
                # in short order — drain them now so one break is handled as
                # one wave (one rebuild), not one wave per future.
                if pool_broken:
                    for future in list(pending):
                        if future.done():
                            consume(future)

                # Hang detection: any still-pending chunk past its deadline.
                expired: list[Future[list[SimJobResult]]] = []
                if timeout is not None:
                    now = self.clock.now()
                    expired = [
                        future
                        for future, (_, deadline) in pending.items()
                        if deadline is not None and deadline <= now and not future.done()
                    ]

                if pool_broken or expired:
                    for future in expired:
                        item, _deadline = pending.pop(future)
                        charge(item, "timeout", f"chunk exceeded chunk_timeout={timeout}s")
                    # Whatever else was in flight is collateral of the
                    # rebuild: resubmit it as-is, without charging an attempt.
                    retry_queue.extend(item for item, _deadline in pending.values())
                    pending.clear()
                    self._rebuild_pool()

                if retry_queue:
                    delay = max(
                        self.retry.backoff_seconds(item.attempt, key=item.start)
                        for item in retry_queue
                    )
                    if delay > 0 and not self.degraded:
                        self.clock.sleep(delay)
                    queue.extend(retry_queue)
                    retry_queue.clear()
        except BaseException:
            # The loop absorbs every worker failure, so this is an interrupt:
            # drop the chunks no worker has started, or close() would sit
            # through the whole rest of the batch before reaping the pool.
            for future in pending:
                future.cancel()
            raise

        if failures and self.on_failure == "raise":
            raise PoisonJobError(failures, total_jobs=len(prepared))
        return results  # type: ignore[return-value]  # every slot filled above

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessPoolBackend(max_workers={self.max_workers}, "
            f"retry={self.retry!r}, degraded={self.degraded})"
        )


#: Grammar reminder appended to every spec-format error.
_SPEC_GRAMMAR = (
    "expected 'serial' or 'process[:workers[:chunk[:retries]]]' (each field a "
    "positive integer or empty for the default — e.g. 'process', "
    "'process:8', 'process:8:4', or 'process:::3'; retries is the attempts "
    "a failing chunk gets before it is bisected down to the poison job, "
    "default 1)."
)


def _spec_field(spec: str, field: str, value: str) -> Optional[int]:
    """Parse one ``:``-separated spec field: empty → default, else int > 0."""
    if not value:
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise ValueError(
            f"invalid backend spec {spec!r}: {field} field {value!r} is not "
            f"an integer; {_SPEC_GRAMMAR}"
        ) from None
    if parsed <= 0:
        raise ValueError(
            f"invalid backend spec {spec!r}: {field} must be positive, "
            f"got {parsed}; {_SPEC_GRAMMAR}"
        )
    return parsed


def backend_from_spec(spec: str) -> ExecutionBackend:
    """Build a backend from a CLI-style spec string.

    ``"serial"`` → :class:`SerialBackend`; ``"process"`` →
    :class:`ProcessPoolBackend` with one worker per available CPU;
    ``"process:N"`` → a pool of exactly N workers; ``"process:N:C"`` →
    additionally submit C jobs per worker task (chunk size); and
    ``"process:N:C:R"`` → the same pool allowing up to R attempts per chunk
    (``RetryPolicy(max_attempts=R)``, default backoff/timeout policy; without
    the field a failing chunk gets one attempt and is bisected straight
    away).  Empty fields keep their defaults, so ``"process::8"`` sets only
    the chunk size and ``"process:::3"`` only the retry budget.

    Malformed specs raise a :class:`ValueError` that restates the grammar
    instead of a bare ``int()`` traceback.
    """
    name, _, arg = spec.partition(":")
    if name == "serial":
        if arg:
            raise ValueError(
                f"invalid backend spec {spec!r}: serial takes no argument; "
                f"{_SPEC_GRAMMAR}"
            )
        return SerialBackend()
    if name == "process":
        fields = arg.split(":") if arg else []
        if len(fields) > 3:
            raise ValueError(
                f"invalid backend spec {spec!r}: too many fields "
                f"({len(fields)}); {_SPEC_GRAMMAR}"
            )
        fields += [""] * (3 - len(fields))
        workers = _spec_field(spec, "workers", fields[0])
        chunk = _spec_field(spec, "chunk", fields[1])
        retries = _spec_field(spec, "retries", fields[2])
        return ProcessPoolBackend(
            max_workers=workers,
            chunk_jobs=chunk,
            retry=RetryPolicy(max_attempts=retries) if retries is not None else None,
        )
    raise ValueError(
        f"unknown backend spec {spec!r}: family {name!r} is not one of "
        f"'serial' or 'process'; {_SPEC_GRAMMAR}"
    )
