"""Execution subsystem: batched simulation jobs over pluggable backends.

The design loop (§4.3) and the figure harnesses all boil down to batches of
independent packet-level simulations.  This package describes one simulation
as a picklable :class:`SimJob`, and runs batches through an
:class:`ExecutionBackend` — serially in-process (the default) or across a
pool of worker processes (:class:`ProcessPoolBackend`, the one place a batch
runs in parallel, with one recovery rule: a broken pool is rebuilt once,
then the batch finishes in this process).
Every backend executes a job the same way (:func:`run_sim_job`), so what a
batch yields never depends on where it ran, and every job given is run.
:mod:`repro.runner.faults` kills pool workers on a seeded schedule, so the
recovery rule has reproducible tests.
"""

from repro.runner.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    available_workers,
    prepare_jobs,
)
from repro.runner.faults import FaultPlan, active_fault_plan, fault_plan_installed
from repro.runner.jobs import (
    SimJob,
    SimJobResult,
    chunk_result_mismatch,
    mix_seed,
    run_sim_job,
    whisker_tree_token,
)

__all__ = [
    "ExecutionBackend",
    "FaultPlan",
    "ProcessPoolBackend",
    "SerialBackend",
    "SimJob",
    "SimJobResult",
    "active_fault_plan",
    "available_workers",
    "chunk_result_mismatch",
    "fault_plan_installed",
    "mix_seed",
    "prepare_jobs",
    "run_sim_job",
    "whisker_tree_token",
]
