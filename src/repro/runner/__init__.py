"""Execution subsystem: batched simulation jobs over pluggable backends.

The design loop (§4.3) and the figure harnesses all boil down to batches of
independent packet-level simulations.  This package describes one simulation
as a picklable :class:`SimJob`, and runs batches through an
:class:`ExecutionBackend` — serially in-process (the default)
or across a pool of worker processes (:class:`ProcessPoolBackend`, the one
local pool: poison-job bisection always, and with a :class:`RetryPolicy`
retry with deterministic backoff, per-chunk timeouts and serial degradation;
the policy and verdict types live in :mod:`repro.runner.resilience`).
Every backend executes a job the same way (:func:`run_sim_job`): a
training-mode job returns its own rule-usage summary in its result and the
caller folds them, so what a batch yields never depends on where it ran.
:mod:`repro.runner.distributed` scales the same batches over the network: a
lease-based work queue (:class:`QueueBackend`, backend spec
``queue:host:port``) with worker heartbeats, crash recovery and graceful
degradation, while :mod:`repro.runner.cache` adds a content-addressed
result cache so repeat evaluations of the same ``(rule table, scenario,
seed)`` are served without running anything.  :mod:`repro.runner.faults`
provides the seeded chaos harness that makes fault-path tests reproducible.
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
    mark_transport_worker,
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
from repro.runner.wire import ConnectionClosed, FrameError

#: Lazily re-exported from :mod:`repro.runner.distributed` (PEP 562): an
#: eager import here would load the module before ``python -m
#: repro.runner.distributed`` executes it as ``__main__``, making runpy warn
#: about the double life.
_DISTRIBUTED_EXPORTS = ("LeaseQueue", "QueueBackend", "run_worker")


def __getattr__(name: str) -> object:
    if name in _DISTRIBUTED_EXPORTS:
        from repro.runner import distributed

        return getattr(distributed, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CachingBackend",
    "ConnectionClosed",
    "ExecutionBackend",
    "FakeClock",
    "FaultPlan",
    "FrameError",
    "InjectedFault",
    "JobFailure",
    "LeaseQueue",
    "MonotonicClock",
    "PoisonJobError",
    "ProcessPoolBackend",
    "QueueBackend",
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
    "mark_transport_worker",
    "mix_seed",
    "prepare_jobs",
    "record_failure",
    "run_sim_job",
    "run_worker",
    "whisker_tree_token",
]
