"""Deterministic fault injection for the execution layer (chaos harness).

Real design-phase runs (§4.3 at paper scale) lose workers to crashes, hangs
and OOM kills; the retry/bisect machinery of
:class:`~repro.runner.backends.ProcessPoolBackend` exists to survive that.
Testing it against *actual* random failures would make the chaos suite
flaky, so this module injects failures **deterministically**: a
:class:`FaultPlan` is a pure function of ``(plan seed, job_id, attempt)``,
so a given plan produces the same crash/hang/exception/corruption schedule
on every run — chaos tests are ordinary reproducible tests.

Faults fire only inside pool worker processes (the pool initializer marks
them via :func:`mark_worker_process`), never in the submitting process: the
plan models *infrastructure* failure, and the serial fallback path must stay
safe to run in the master even under an installed plan.

Installation crosses the process boundary through the ``REPRO_FAULT_PLAN``
environment variable (inherited by pool workers at spawn), so a plan must be
installed *before* the backend creates its pool::

    with fault_plan_installed(FaultPlan(seed=7, crash_rate=0.3)):
        with ProcessPoolBackend(max_workers=2, retry=RetryPolicy()) as backend:
            results = backend.run_batch(jobs)

Fault modes, decided once per ``(job_id, attempt)``:

* ``crash``     — the worker process dies via ``os._exit`` (the pool breaks,
  losing every in-flight chunk: the BrokenProcessPool path);
* ``hang``      — the worker sleeps ``hang_seconds`` (exercises the
  per-chunk timeout / pool-rebuild path);
* ``exception`` — the job raises :class:`InjectedFault` (the chunk fails,
  the pool survives);
* ``corrupt``   — the job's result comes back with a scrambled ``job_id``
  (exercises result validation).

``poison_jobs`` lists job ids that crash on **every** attempt — the
incurable failure the pool must bisect down to a structured
:class:`~repro.runner.resilience.JobFailure`.  All other faults are
re-rolled per attempt (and can be limited to the first
``max_faulty_attempts`` attempts), so retried jobs eventually succeed and,
because jobs are pure functions of their inputs, produce bit-identical
results to an undisturbed run.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import asdict, dataclass, replace
from typing import Iterator, Optional

from repro.runner.jobs import SimJobResult

#: Environment variable carrying the JSON-encoded plan to worker processes.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: ``job_id`` marker left on a corrupted result (also makes the corruption
#: obvious in a debugger: no real job carries a negative id).
CORRUPTED_JOB_ID = -1

#: Set by :func:`mark_worker_process` (the pool initializer) in workers.
_in_worker_process = False

#: Plan installed in this process (workers inherit it via fork or re-read
#: the environment variable under spawn).
_installed_plan: Optional["FaultPlan"] = None


class InjectedFault(RuntimeError):
    """The exception raised by the plan's ``exception`` fault mode."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible schedule of worker failures.

    Rates are independent probabilities per ``(job_id, attempt)`` and must
    sum to at most 1.  ``max_faulty_attempts`` (when set) limits injection
    to the first N attempts of each job, giving deterministic
    fail-then-succeed schedules; ``poison_jobs`` crash unconditionally on
    every attempt.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    exception_rate: float = 0.0
    corrupt_rate: float = 0.0
    hang_seconds: float = 30.0
    poison_jobs: tuple[int, ...] = ()
    max_faulty_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        rates = (
            self.crash_rate,
            self.hang_rate,
            self.exception_rate,
            self.corrupt_rate,
        )
        if any(rate < 0.0 or rate > 1.0 for rate in rates):
            raise ValueError("fault rates must lie in [0, 1]")
        if sum(rates) > 1.0 + 1e-12:
            raise ValueError("fault rates must sum to at most 1")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        if self.max_faulty_attempts is not None and self.max_faulty_attempts < 0:
            raise ValueError("max_faulty_attempts must be non-negative")

    # -- decision ------------------------------------------------------------
    def mode_for(self, job_id: int, attempt: int) -> Optional[str]:
        """The fault (if any) for one execution attempt of one job.

        Pure: the same ``(plan, job_id, attempt)`` always returns the same
        mode.  The draw is seeded through ``random.Random``'s string seeding
        (SHA-512, the :func:`~repro.runner.jobs.mix_seed` idiom) so distinct
        keys get independent decisions.
        """
        if job_id in self.poison_jobs:
            return "crash"
        if (
            self.max_faulty_attempts is not None
            and attempt >= self.max_faulty_attempts
        ):
            return None
        draw = random.Random(f"fault:{self.seed}:{job_id}:{attempt}").random()
        for mode, rate in (
            ("crash", self.crash_rate),
            ("hang", self.hang_rate),
            ("exception", self.exception_rate),
            ("corrupt", self.corrupt_rate),
        ):
            if draw < rate:
                return mode
            draw -= rate
        return None

    # -- worker-side application ---------------------------------------------
    def apply_before_run(self, job_id: int, attempt: int) -> None:
        """Fire a pre-execution fault (crash / hang / exception), if any."""
        mode = self.mode_for(job_id, attempt)
        if mode == "crash":
            # A real worker death (segfault/OOM-kill analogue): skips every
            # Python-level cleanup and breaks the whole pool.
            os._exit(13)
        if mode == "hang":
            # Deliberately a bare sleep: this *is* the hang being injected,
            # not coordination waiting, so it must not go through a fakeable
            # clock.  noqa: SLP001 below names this exemption.
            time.sleep(self.hang_seconds)  # noqa: SLP001 — injected hang
        elif mode == "exception":
            raise InjectedFault(
                f"injected exception for job {job_id} (attempt {attempt})"
            )

    def apply_after_run(
        self, job_id: int, attempt: int, result: SimJobResult
    ) -> SimJobResult:
        """Corrupt the result in transit when the mode says so."""
        if self.mode_for(job_id, attempt) == "corrupt":
            return replace(result, job_id=CORRUPTED_JOB_ID)
        return result

    # -- (de)serialization ----------------------------------------------------
    def to_json(self) -> str:
        data = asdict(self)
        data["poison_jobs"] = list(self.poison_jobs)
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        data["poison_jobs"] = tuple(data.get("poison_jobs", ()))
        return cls(**data)


def mark_worker_process() -> None:
    """Pool-worker initializer: arm fault injection in this process.

    Installed by :class:`~repro.runner.backends.ProcessPoolBackend` on every
    pool it creates.  The flag is what keeps injection out of the submitting
    process (and out of :class:`~repro.runner.backends.SerialBackend` and the
    pool's own serial-degradation path).
    """
    global _in_worker_process
    _in_worker_process = True


def install_fault_plan(plan: FaultPlan) -> None:
    """Install ``plan`` for every pool created *after* this call.

    Sets both the module global (inherited by forked workers) and the
    ``REPRO_FAULT_PLAN`` environment variable (re-read by spawned workers),
    so installation works under either multiprocessing start method.
    """
    global _installed_plan
    _installed_plan = plan
    os.environ[FAULT_PLAN_ENV] = plan.to_json()


def clear_fault_plan() -> None:
    """Remove any installed plan (idempotent)."""
    global _installed_plan
    _installed_plan = None
    os.environ.pop(FAULT_PLAN_ENV, None)


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan that applies in this process, or ``None``.

    Worker processes that were forked inherit the module global; spawned
    ones fall back to the environment variable.
    """
    if _installed_plan is not None:
        return _installed_plan
    encoded = os.environ.get(FAULT_PLAN_ENV)
    if encoded is None:
        return None
    return FaultPlan.from_json(encoded)


def worker_fault_plan() -> Optional[FaultPlan]:
    """The plan to apply to job execution *here*: armed workers only."""
    if not _in_worker_process:
        return None
    return active_fault_plan()


class fault_plan_installed:
    """Context manager: install a plan for the duration of a ``with`` block.

    Restores the previously installed plan (or the clean state) on exit, so
    chaos tests cannot leak injection into later tests.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        self._previous = _installed_plan
        install_fault_plan(self._plan)
        return self._plan

    def __exit__(self, *exc_info: object) -> None:
        if self._previous is None:
            clear_fault_plan()
        else:
            install_fault_plan(self._previous)


def iter_fault_schedule(
    plan: FaultPlan, job_ids: Iterator[int] | list[int], attempts: int = 1
) -> list[tuple[int, int, Optional[str]]]:
    """Tabulate the plan's decisions — a debugging/reporting aid.

    Returns ``(job_id, attempt, mode)`` triples for every job id over the
    first ``attempts`` attempts; handy for asserting a schedule in tests or
    printing what a chaos run is about to do.
    """
    return [
        (job_id, attempt, plan.mode_for(job_id, attempt))
        for job_id in list(job_ids)
        for attempt in range(attempts)
    ]
