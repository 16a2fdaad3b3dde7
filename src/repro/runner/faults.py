"""Deterministic worker crashes: the test harness for the pool's recovery rule.

:class:`~repro.runner.backends.ProcessPoolBackend` rebuilds a broken pool
once, and a second break finishes the batch in the submitting process.
Real, random worker deaths would make the tests of that flaky, so a
:class:`FaultPlan` decides each crash as a pure function of ``(plan seed,
job_id, attempt)``: a given plan kills the same workers on every run.

Crashes fire only inside pool workers, so the in-process finish stays safe
under an installed plan.  A pool hands the plan installed when it is built
to each worker as the argument of its initializer
(:func:`mark_worker_process`), so install the plan *before* the pool
exists::

    with fault_plan_installed(FaultPlan(seed=7, crash_rate=0.3)):
        with ProcessPoolBackend(max_workers=2) as backend:
            results = backend.run_batch(jobs)

``attempt`` is 0 on the batch's first pool and 1 after the rebuild;
``max_faulty_attempts=1`` with ``crash_rate=1.0`` kills every chunk once.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

#: Plan installed in this process (read when a pool is built).
_installed_plan: Optional["FaultPlan"] = None

#: Plan armed in this process by :func:`mark_worker_process` (workers only).
_worker_plan: Optional["FaultPlan"] = None


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible schedule of worker crashes.

    ``crash_rate`` is the probability, per ``(job_id, attempt)``, that the
    worker dies before running the job.
    """

    seed: int = 0
    crash_rate: float = 0.0
    max_faulty_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash_rate <= 1.0:
            raise ValueError("crash_rate must lie in [0, 1]")
        if self.max_faulty_attempts is not None and self.max_faulty_attempts < 0:
            raise ValueError("max_faulty_attempts must be non-negative")

    def crashes(self, job_id: int, attempt: int) -> bool:
        """Whether the worker dies on this attempt of this job (pure: the
        draw is string-seeded, the :func:`~repro.runner.jobs.mix_seed` idiom).
        """
        if self.max_faulty_attempts is not None and attempt >= self.max_faulty_attempts:
            return False
        draw = random.Random(f"fault:{self.seed}:{job_id}:{attempt}").random()
        return draw < self.crash_rate

    def apply(self, job_id: int, attempt: int) -> None:
        """Kill this worker if the plan says so."""
        if self.crashes(job_id, attempt):
            # A real worker death (segfault/OOM-kill analogue): skips every
            # Python-level cleanup and breaks the whole pool.
            os._exit(13)


def mark_worker_process(plan: Optional[FaultPlan]) -> None:
    """Pool-worker initializer: arm ``plan`` (``None``: no faults) here.

    Nothing else arms a plan, which keeps crashes out of the submitting
    process.
    """
    global _worker_plan
    _worker_plan = plan


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan a pool built now would hand to its workers, or ``None``."""
    return _installed_plan


def worker_fault_plan() -> Optional[FaultPlan]:
    """The plan to apply to job execution *here*: armed workers only."""
    return _worker_plan


@contextmanager
def fault_plan_installed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for pools built inside the ``with`` block; the
    previous plan (or none) is restored on exit."""
    global _installed_plan
    previous, _installed_plan = _installed_plan, plan
    try:
        yield plan
    finally:
        _installed_plan = previous
