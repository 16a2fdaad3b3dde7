"""Crash-path tests for the process pool's one recovery rule.

:class:`~repro.runner.ProcessPoolBackend` rebuilds a broken pool once and
resubmits only the chunks without a result; a second break in the same
batch finishes the rest of it in this process, with a warning.  Workers are
killed through a seeded :class:`~repro.runner.FaultPlan`, so these are
ordinary reproducible tests.  The properties pinned:

* **determinism across recovery** — whether a batch ran clean, on a rebuilt
  pool or partly in this process, its results are bit-identical to a serial
  run (jobs are pure functions of their pickled inputs);
* **a failing job names itself** — a job that raises in a worker is
  re-raised here as its own exception with a note naming the job, and the
  pool serves the next batch;
* **the budget is per batch** — a batch that finished in this process does
  not condemn the next one to it.

The golden parity sweep runs over the smoke scenario cells; serial-vs-pool
parity of every cell is pinned by ``tests/test_scenario_matrix.py`` under
``SCENARIO_MATRIX=full``.
"""

from __future__ import annotations

import logging
from dataclasses import replace

import pytest

from conftest import cell_job
from repro.netsim.path import PathSpec
from repro.runner import (
    FaultPlan,
    ProcessPoolBackend,
    SerialBackend,
    SimJob,
    active_fault_plan,
    chunk_result_mismatch,
    fault_plan_installed,
    run_sim_job,
)
from repro.runner import backends
from repro.runner.faults import worker_fault_plan
from repro.scenarios import ProtocolSpec, load_golden, simulation_fingerprint, smoke_scenarios

SPEC = PathSpec.dumbbell(
    rate_bps=4e6, rtt=0.08, n_flows=2, queue="droptail", buffer_packets=100
)


#: Jobs per batch.  A two-worker pool cuts a batch into four chunks per
#: worker, so sixteen jobs make eight chunks of two: every crash below loses
#: a chunk that carries more than one job.
BATCH = 16


def make_jobs(n: int = BATCH, duration: float = 1.0, first_id: int = 0) -> list[SimJob]:
    return [
        SimJob(
            job_id=first_id + i,
            spec=SPEC,
            duration=duration,
            seed=100 + i,
            protocols=(ProtocolSpec("newreno"),),
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def serial_results():
    return SerialBackend().run_batch(make_jobs())


# ---------------------------------------------------------------------------
# FaultPlan (the crash harness itself)
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(max_faulty_attempts=-1)

    def test_mode_is_deterministic_per_job_and_attempt(self):
        plan = FaultPlan(seed=11, crash_rate=0.5)
        schedule = [plan.crashes(job, attempt) for job in range(50) for attempt in (0, 1)]
        assert schedule == [
            FaultPlan(seed=11, crash_rate=0.5).crashes(job, attempt)
            for job in range(50)
            for attempt in (0, 1)
        ]
        assert True in schedule and False in schedule

    def test_full_crash_rate_crashes_every_attempt(self):
        plan = FaultPlan(seed=0, crash_rate=1.0)
        assert all(plan.crashes(4, attempt) for attempt in range(10))
        assert not FaultPlan(seed=0).crashes(4, 0)

    def test_max_faulty_attempts_limits_injection(self):
        plan = FaultPlan(seed=0, crash_rate=1.0, max_faulty_attempts=1)
        assert plan.crashes(1, 0)
        assert not plan.crashes(1, 1)

    def test_install_and_context_manager_restore(self):
        assert active_fault_plan() is None
        outer = FaultPlan(seed=1, crash_rate=0.1)
        with fault_plan_installed(outer):
            with fault_plan_installed(FaultPlan(seed=2)) as inner:
                assert active_fault_plan() == inner
            assert active_fault_plan() == outer
        assert active_fault_plan() is None

    def test_injection_is_worker_gated(self):
        # Only the pool initializer arms a plan, so even an installed plan
        # must not fire here (the in-process finish depends on this).
        with fault_plan_installed(FaultPlan(seed=1, crash_rate=1.0)):
            assert worker_fault_plan() is None


# ---------------------------------------------------------------------------
# A job that raises, and a chunk that comes back wrong
# ---------------------------------------------------------------------------
def failing_batch() -> list[SimJob]:
    """A batch whose fourth job (job 3) cannot run: its duration is NaN."""
    jobs = make_jobs()
    jobs[3] = replace(jobs[3], duration=float("nan"))
    return jobs


def reversed_chunk(jobs, attempt=0):
    """A worker entry point that returns a chunk's results out of order."""
    return [run_sim_job(job) for job in reversed(jobs)]


class TestPlainPoolChunkFailure:
    def test_worker_exception_names_the_jobs_not_the_chunk(self):
        with ProcessPoolBackend(max_workers=2) as backend:
            with pytest.raises(ValueError, match="finite") as excinfo:
                backend.run_batch(failing_batch())
        # The job's own exception, not a wrapper, and the note names the
        # job rather than the chunk that carried it.
        assert type(excinfo.value) is ValueError
        assert excinfo.value.__notes__ == ["job 3"]
        assert backend.pool_rebuilds == 0  # an exception leaves the pool up

    def test_pool_remains_usable_after_chunk_failure(self, serial_results):
        with ProcessPoolBackend(max_workers=2) as backend:
            with pytest.raises(ValueError):
                backend.run_batch(failing_batch())
            executor = backend._executor
            results = backend.run_batch(make_jobs())
            assert backend._executor is executor
        assert results == serial_results

    def test_corrupt_chunk_result_is_a_hard_error(self, monkeypatch):
        monkeypatch.setattr(backends, "_execute_job_chunk", reversed_chunk)
        with ProcessPoolBackend(max_workers=2) as backend:
            with pytest.raises(RuntimeError, match="expected"):
                backend.run_batch(make_jobs())

    def test_chunk_result_mismatch_helper(self):
        jobs = make_jobs(2)
        results = SerialBackend().run_batch(jobs)
        assert chunk_result_mismatch(jobs, results) is None
        assert "expected" in chunk_result_mismatch(jobs, results[::-1])
        assert chunk_result_mismatch(jobs, results[:1]) is not None


# ---------------------------------------------------------------------------
# The recovery rule: rebuild once, then finish in this process
# ---------------------------------------------------------------------------
class TestResilientBackend:
    def test_clean_run_matches_serial(self, serial_results):
        with ProcessPoolBackend(max_workers=2) as backend:
            results = backend.run_batch(make_jobs())
        assert results == serial_results
        assert backend.pool_rebuilds == 0 and not backend.degraded

    def test_worker_crash_resubmits_lost_chunks(self, serial_results):
        # Every chunk's first attempt dies via os._exit in the worker; the
        # pool breaks, is rebuilt once, and the lost chunks run again.
        plan = FaultPlan(seed=7, crash_rate=1.0, max_faulty_attempts=1)
        with fault_plan_installed(plan):
            with ProcessPoolBackend(max_workers=2) as backend:
                results = backend.run_batch(make_jobs())
        assert results == serial_results
        assert backend.pool_rebuilds == 1 and not backend.degraded

    def test_degrades_to_serial_after_rebuild_budget(self, serial_results, caplog):
        # Workers crash on *every* attempt: the rebuilt pool breaks too, and
        # the batch finishes here (crashes are worker-gated, so this is clean).
        with fault_plan_installed(FaultPlan(seed=7, crash_rate=1.0)):
            with ProcessPoolBackend(max_workers=2) as backend:
                with caplog.at_level(logging.WARNING, logger="repro.runner.backends"):
                    results = backend.run_batch(make_jobs())
        assert results == serial_results
        assert backend.pool_rebuilds == 1 and backend.degraded
        [record] = caplog.records
        assert f"{BATCH} of {BATCH} jobs in this process" in record.getMessage()

    def test_degradation_lasts_one_batch_not_the_pool_lifetime(self, serial_results):
        # Batch 1 finishes here.  Batch 2 (plan gone, so the fresh workers
        # are born fault-free) gets a fresh budget and runs on real workers.
        with ProcessPoolBackend(max_workers=2) as backend:
            with fault_plan_installed(FaultPlan(seed=7, crash_rate=1.0)):
                backend.run_batch(make_jobs())
            assert backend.degraded and backend.pool_rebuilds == 1
            results = backend.run_batch(make_jobs())
            assert not backend.degraded and backend.pool_rebuilds == 0
            assert backend._executor is not None  # workers were started
        assert results == serial_results

    def test_empty_batch(self):
        with ProcessPoolBackend(max_workers=1) as backend:
            assert backend.run_batch([]) == []
            assert backend._executor is None  # no pool for nothing


# ---------------------------------------------------------------------------
# Golden parity across every recovery path (the acceptance sweep)
# ---------------------------------------------------------------------------
CRASH_CELLS = sorted(s.name for s in smoke_scenarios())

#: Half of all (job, attempt) pairs kill their worker.  Each cell runs as
#: the job numbered by its position, so over the smoke cells this seed
#: covers all three paths: clean, rebuilt once, and finished here.
CRASH_PLAN = FaultPlan(seed=1310, crash_rate=0.5)


def expected_recovery(job_id: int) -> tuple[int, bool]:
    """``(pool_rebuilds, degraded)`` the plan dictates for a one-job batch."""
    first, second = (CRASH_PLAN.crashes(job_id, attempt) for attempt in (0, 1))
    return int(first), first and second


def test_crash_sweep_covers_every_recovery_path():
    paths = {expected_recovery(job_id) for job_id in range(len(CRASH_CELLS))}
    assert paths == {(0, False), (1, False), (1, True)}


@pytest.mark.parametrize("cell_name", CRASH_CELLS)
def test_chaos_golden_parity(cell_name):
    """The committed fingerprints survive worker deaths.

    A pool run whose workers die mid-flight — once, or on the rebuilt pool
    too — must reproduce each cell's committed golden fingerprint
    bit-identically.
    """
    job_id = CRASH_CELLS.index(cell_name)
    job = cell_job(cell_name, job_id=job_id)
    with fault_plan_installed(CRASH_PLAN):
        with ProcessPoolBackend(max_workers=2) as backend:
            [result] = backend.run_batch([job])
    assert (backend.pool_rebuilds, backend.degraded) == expected_recovery(job_id)
    assert simulation_fingerprint(result.result) == load_golden()[cell_name], (
        f"{cell_name} fingerprint diverged across a worker death — re-running "
        "a lost chunk is not a pure re-execution"
    )
