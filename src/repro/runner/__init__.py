"""Execution subsystem: batched simulation jobs over pluggable backends.

The design loop (§4.3) and the figure harnesses all boil down to batches of
independent packet-level simulations.  This package describes one simulation
as a picklable :class:`SimJob`, and runs batches through an
:class:`ExecutionBackend` — serially in-process (the default)
or across a pool of worker processes (:class:`ProcessPoolBackend`, the one
place a batch runs in parallel: poison-job bisection always, and with a
:class:`RetryPolicy` retry with deterministic backoff, per-chunk timeouts and
serial degradation; the policy and verdict types live in
:mod:`repro.runner.resilience`).
Every backend executes a job the same way (:func:`run_sim_job`): a
training-mode job returns its own rule-usage summary in its result and the
caller folds them, so what a batch yields never depends on where it ran.
:mod:`repro.runner.cache` adds a content-addressed result cache so repeat
evaluations of the same ``(rule table, scenario, seed)`` are served without
running anything.  :mod:`repro.runner.faults` provides the seeded chaos
harness that makes fault-path tests reproducible.
"""

from repro.runner.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    available_workers,
    backend_from_spec,
    prepare_jobs,
)
from repro.runner.cache import (
    CachingBackend,
    ResultCache,
    batch_cache_keys,
    job_cache_key,
    whisker_tree_token,
)
from repro.runner.faults import (
    FaultPlan,
    InjectedFault,
    active_fault_plan,
    clear_fault_plan,
    fault_plan_installed,
    install_fault_plan,
)
from repro.runner.jobs import (
    SimJob,
    SimJobResult,
    chunk_result_mismatch,
    mix_seed,
    run_sim_job,
)
from repro.runner.resilience import (
    FakeClock,
    JobFailure,
    MonotonicClock,
    PoisonJobError,
    RetryPolicy,
    record_failure,
)

__all__ = [
    "CachingBackend",
    "ExecutionBackend",
    "FakeClock",
    "FaultPlan",
    "InjectedFault",
    "JobFailure",
    "MonotonicClock",
    "PoisonJobError",
    "ProcessPoolBackend",
    "ResultCache",
    "RetryPolicy",
    "SerialBackend",
    "SimJob",
    "SimJobResult",
    "active_fault_plan",
    "available_workers",
    "backend_from_spec",
    "batch_cache_keys",
    "chunk_result_mismatch",
    "clear_fault_plan",
    "fault_plan_installed",
    "install_fault_plan",
    "job_cache_key",
    "mix_seed",
    "prepare_jobs",
    "record_failure",
    "run_sim_job",
    "whisker_tree_token",
]
