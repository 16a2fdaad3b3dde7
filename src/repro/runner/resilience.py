"""Fault-tolerance policy and verdicts: retry, backoff, poison-job isolation.

The design phase (§4.3) is a long-running, massively parallel search — the
workload where worker crashes, hangs and OOM kills are routine.  This module
holds the policy side of the one fault-tolerant backend,
:class:`~repro.runner.backends.ProcessPoolBackend`; it runs no workers of
its own:

* :class:`RetryPolicy` — how many attempts a chunk gets, exponential backoff
  with **deterministic** jitter between attempts, an optional per-chunk
  timeout (hang detection), and the pool-rebuild budget before degrading to
  in-process serial execution.  Every wait goes through a :class:`Clock`, so
  tests substitute :class:`FakeClock` and chaos tests never really sleep.
* :func:`record_failure` — the verdict on one failed chunk attempt: retry,
  bisect, solo-confirm, or condemn a single :class:`~repro.runner.jobs.SimJob`
  as a structured :class:`JobFailure` (collected into a
  :class:`PoisonJobError`) instead of a bare traceback.
* :func:`run_item_serially` — the degraded path a backend falls back to
  once it stops trusting its workers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Optional, Protocol, Sequence, Union

from repro.runner.jobs import SimJob, SimJobResult, run_sim_job


# ---------------------------------------------------------------------------
# Clocks: every wait is fakeable
# ---------------------------------------------------------------------------
class Clock(Protocol):
    """The time source the resilience layer is allowed to consult.

    ``repro.runner`` code must never call ``time.sleep`` directly (lint rule
    SLP001): routing all waiting through a clock object is what lets the
    chaos tests run with a :class:`FakeClock` and finish in milliseconds.
    """

    def now(self) -> float:
        """Monotonic seconds (only differences are meaningful)."""
        ...

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds``."""
        ...


class MonotonicClock:
    """The real clock (monotonic time, real sleeping)."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            # The single sanctioned real sleep in repro.runner: every other
            # call site must route through a Clock so tests can fake it.
            time.sleep(seconds)  # noqa: SLP001 — the Clock implementation


class FakeClock:
    """Test clock: sleeping advances virtual time instantly and is recorded."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self.sleeps: list[float] = []

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self._now += max(0.0, seconds)

    def advance(self, seconds: float) -> None:
        self._now += seconds


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How hard a fault-tolerant backend fights for each chunk.

    ``max_attempts`` counts total tries per chunk (1 = no retry).  Backoff
    before the ``n``-th retry is ``backoff_base * backoff_multiplier**(n-1)``
    capped at ``backoff_max``, scaled by a **deterministic** jitter factor in
    ``[1 - jitter, 1 + jitter]`` derived from ``(seed, key, attempt)`` — so
    two backends retrying the same chunk don't thunder in lockstep, yet a
    rerun of the same batch waits exactly the same schedule (and tests can
    assert it).

    ``chunk_timeout`` (seconds, ``None`` = wait forever) bounds one attempt
    of one chunk; exceeding it is treated as a hung worker and triggers a
    pool rebuild.  ``max_pool_rebuilds`` bounds how many times the pool is
    rebuilt (after a break *or* a timeout kill) before the backend degrades
    to serial in-process execution for the rest of the batch.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1
    chunk_timeout: Optional[float] = None
    max_pool_rebuilds: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff durations must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive (or None)")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be non-negative")

    def backoff_seconds(self, attempt: int, key: object = 0) -> float:
        """Delay before retrying after ``attempt`` completed failures.

        Pure: the same ``(policy, attempt, key)`` always yields the same
        delay.  The jitter draw uses ``random.Random`` string seeding (the
        :func:`~repro.runner.jobs.mix_seed` idiom), never ambient entropy.
        """
        if attempt <= 0:
            return 0.0
        delay = self.backoff_base * self.backoff_multiplier ** (attempt - 1)
        delay = min(delay, self.backoff_max)
        if self.jitter:
            rng = random.Random(f"backoff:{self.seed}:{key}:{attempt}")
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


# ---------------------------------------------------------------------------
# Failure reporting
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class JobFailure:
    """One job that could not be executed, as structured data.

    ``kind`` is one of ``"crash"`` (the worker process died), ``"timeout"``
    (the chunk exceeded the per-chunk timeout), ``"exception"`` (the job
    raised; ``message`` carries the repr) or ``"corrupt"`` (the worker's
    result failed validation).  ``attempts`` counts executions charged to
    the chunk(s) that carried this job at its final bisection level.
    """

    job_id: int
    kind: str
    attempts: int
    message: str = ""

    def describe(self) -> str:
        detail = f": {self.message}" if self.message else ""
        return f"job {self.job_id} failed ({self.kind}, {self.attempts} attempts){detail}"


class PoisonJobError(RuntimeError):
    """Raised by ``run_batch`` when jobs remain failed after all retries.

    Carries the isolated :class:`JobFailure` records (in submission order)
    plus how much of the batch *did* complete — so the caller sees exactly
    which jobs are poison instead of a traceback from deep inside a worker.
    """

    def __init__(self, failures: Sequence[JobFailure], total_jobs: int):
        self.failures = list(failures)
        self.total_jobs = total_jobs
        summary = "; ".join(failure.describe() for failure in self.failures)
        super().__init__(
            f"{len(self.failures)} of {total_jobs} jobs failed permanently "
            f"after retry/bisection: {summary}"
        )


# ---------------------------------------------------------------------------
# Verdicts: what becomes of a failed chunk
# ---------------------------------------------------------------------------
@dataclass
class _WorkItem:
    """One schedulable unit: a contiguous run of jobs plus its retry state."""

    start: int  # batch offset of jobs[0]
    jobs: tuple[SimJob, ...]
    attempt: int = 0  # completed (failed) attempts so far
    #: Solo-confirmation stage: this item runs with nothing else in flight,
    #: so any failure is unambiguously *its* fault (see record_failure).
    solo: bool = False

    def job_ids(self) -> list[int]:
        return [job.job_id for job in self.jobs]


#: One slot of a fault-tolerant batch result: the job's result, or why it failed.
BatchEntry = Union[SimJobResult, JobFailure]


def record_failure(
    item: _WorkItem,
    kind: str,
    message: str,
    *,
    max_attempts: int,
    results: list[Optional[BatchEntry]],
    failures: list[JobFailure],
    retry_queue: list[_WorkItem],
    solo_queue: list[_WorkItem],
) -> None:
    """Charge one failed attempt to ``item`` and decide its future.

    The verdict machinery of
    :class:`~repro.runner.backends.ProcessPoolBackend`.  Retry while
    attempts remain; then bisect multi-job chunks (each half starts over
    with a fresh attempt budget).  A *single* job out of attempts is not
    condemned yet: a pool break charges every in-flight chunk — the culprit
    cannot be told from its victims — so an innocent job can exhaust its
    attempts purely collaterally.  It is instead promoted to the
    **solo-confirmation** queue — re-run with nothing else in flight, where
    a failure is unambiguously its own — and only a job that also exhausts
    its solo attempts becomes a :class:`JobFailure`.
    """
    attempt = item.attempt + 1
    if attempt < max_attempts:
        retry_queue.append(replace(item, attempt=attempt))
        return
    if len(item.jobs) > 1:
        mid = len(item.jobs) // 2
        retry_queue.append(_WorkItem(item.start, item.jobs[:mid]))
        retry_queue.append(_WorkItem(item.start + mid, item.jobs[mid:]))
        return
    if not item.solo:
        solo_queue.append(_WorkItem(item.start, item.jobs, solo=True))
        return
    failure = JobFailure(
        job_id=item.jobs[0].job_id, kind=kind, attempts=attempt, message=message
    )
    failures.append(failure)
    results[item.start] = failure


def run_item_serially(
    item: _WorkItem,
    results: list[Optional[BatchEntry]],
    failures: list[JobFailure],
) -> None:
    """Execute one work item in-process — the degraded path.

    Used when the process pool stops trusting its workers (too many
    rebuilds in one batch).  Runs job by job so a genuine per-job exception
    is attributed to that job alone.  Injected faults do not fire here:
    this is not a worker process.
    """
    for offset, job in enumerate(item.jobs):
        try:
            result = run_sim_job(job)
        except Exception as exc:
            failure = JobFailure(
                job_id=job.job_id,
                kind="exception",
                attempts=item.attempt + 1,
                message=repr(exc),
            )
            failures.append(failure)
            results[item.start + offset] = failure
        else:
            results[item.start + offset] = result
