"""Crash-path tests for the fault-tolerant execution layer.

Every scenario here injects failures through a seeded
:class:`~repro.runner.FaultPlan` — the chaos harness is deterministic, so
these are ordinary reproducible tests, not flaky ones.  The properties
pinned:

* **determinism under retry** — whatever mix of crashes, hangs, exceptions
  and corrupted results a batch survives, the results are bit-identical to
  an undisturbed serial run (jobs are pure functions of their pickled
  inputs, so a retry is a pure re-execution);
* **poison isolation** — a job that fails on every attempt is bisected out
  of its chunk and reported as a structured :class:`JobFailure` naming
  exactly that job, with every *other* job's result intact;
* **degradation** — after the pool-rebuild budget is spent the backend
  finishes the batch serially in-process rather than giving up, and the
  *next* batch gets a fresh pool and a fresh budget;
* **fake time** — all backoff waiting goes through the :class:`Clock`
  abstraction, so the timing tests below use :class:`FakeClock` and tier-1
  never really sleeps (lint rule SLP001 enforces the no-bare-sleep side).

Gating: the golden-matrix chaos parity sweep runs over the smoke scenario
cells by default; set ``CHAOS_MATRIX=full`` (the CI chaos job does) to run
every registered cell.
"""

from __future__ import annotations

import os

import pytest

from repro.netsim.network import NetworkSpec
from repro.protocols.newreno import NewReno
from repro.runner import (
    FakeClock,
    FaultPlan,
    InjectedFault,
    JobFailure,
    MonotonicClock,
    PoisonJobError,
    ProcessPoolBackend,
    RetryPolicy,
    SerialBackend,
    SimJob,
    active_fault_plan,
    backend_from_spec,
    chunk_result_mismatch,
    clear_fault_plan,
    fault_plan_installed,
    install_fault_plan,
)
from repro.runner.faults import CORRUPTED_JOB_ID, iter_fault_schedule, worker_fault_plan
from repro.scenarios import (
    get_scenario,
    load_golden,
    scenario_names,
    simulation_fingerprint,
    smoke_scenarios,
)

CHAOS_FULL = os.environ.get("CHAOS_MATRIX", "").lower() in {"full", "all", "1"}

SPEC = NetworkSpec(
    link_rate_bps=4e6, rtt=0.08, n_flows=2, queue="droptail", buffer_packets=100
)


def make_jobs(n: int = 6, duration: float = 1.0, first_id: int = 0) -> list[SimJob]:
    return [
        SimJob(
            job_id=first_id + i,
            spec=SPEC,
            duration=duration,
            seed=100 + i,
            protocol_factory=NewReno,
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def serial_results():
    return SerialBackend().run_batch(make_jobs())


# ---------------------------------------------------------------------------
# RetryPolicy / clocks (no pool involved)
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(chunk_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_pool_rebuilds=-1)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_multiplier=2.0, backoff_max=0.5, jitter=0.0
        )
        assert policy.backoff_seconds(0) == 0.0
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(2) == pytest.approx(0.2)
        assert policy.backoff_seconds(3) == pytest.approx(0.4)
        assert policy.backoff_seconds(4) == pytest.approx(0.5)  # capped
        assert policy.backoff_seconds(10) == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_max=10.0, jitter=0.2, seed=5)
        # Same (attempt, key) -> same delay; different keys decorrelate.
        assert policy.backoff_seconds(2, key=0) == policy.backoff_seconds(2, key=0)
        assert policy.backoff_seconds(2, key=0) != policy.backoff_seconds(2, key=8)
        for key in range(10):
            delay = policy.backoff_seconds(1, key=key)
            assert 0.8 <= delay <= 1.2

    def test_fake_clock_records_sleeps_and_advances(self):
        clock = FakeClock()
        clock.sleep(1.5)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(2.0)
        assert clock.sleeps == [1.5]

    def test_monotonic_clock_is_monotonic(self):
        clock = MonotonicClock()
        assert clock.now() <= clock.now()


# ---------------------------------------------------------------------------
# FaultPlan (the chaos harness itself)
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=0.6, hang_rate=0.6)
        with pytest.raises(ValueError):
            FaultPlan(hang_seconds=0.0)

    def test_mode_is_deterministic_per_job_and_attempt(self):
        plan = FaultPlan(seed=11, crash_rate=0.3, exception_rate=0.3)
        schedule = iter_fault_schedule(plan, list(range(50)), attempts=3)
        assert schedule == iter_fault_schedule(plan, list(range(50)), attempts=3)
        modes = {mode for _, _, mode in schedule}
        assert "crash" in modes and "exception" in modes and None in modes

    def test_poison_jobs_always_crash(self):
        plan = FaultPlan(seed=0, poison_jobs=(4,))
        assert all(plan.mode_for(4, attempt) == "crash" for attempt in range(10))
        assert plan.mode_for(5, 0) is None

    def test_max_faulty_attempts_limits_injection(self):
        plan = FaultPlan(seed=0, crash_rate=1.0, max_faulty_attempts=2)
        assert plan.mode_for(1, 0) == "crash"
        assert plan.mode_for(1, 1) == "crash"
        assert plan.mode_for(1, 2) is None

    def test_json_round_trip(self):
        plan = FaultPlan(seed=9, crash_rate=0.25, poison_jobs=(1, 2))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_a_field_the_plan_does_not_have(self):
        # REPRO_FAULT_PLAN is input from outside the process: a plan written
        # for the deleted network vocabulary must fail loudly, not run as a
        # weaker plan with the unknown rate silently dropped.
        with pytest.raises(TypeError, match="disconnect_rate"):
            FaultPlan.from_json('{"seed": 1, "disconnect_rate": 0.1}')

    def test_install_and_context_manager_restore(self):
        clear_fault_plan()
        assert active_fault_plan() is None
        outer = FaultPlan(seed=1, crash_rate=0.1)
        install_fault_plan(outer)
        try:
            with fault_plan_installed(FaultPlan(seed=2)) as inner:
                assert active_fault_plan() == inner
            assert active_fault_plan() == outer
        finally:
            clear_fault_plan()
        assert active_fault_plan() is None

    def test_injection_is_worker_gated(self):
        # The master process is never marked as a worker, so even an
        # installed plan must not fire here (the serial-degradation path
        # depends on this).
        with fault_plan_installed(FaultPlan(seed=1, crash_rate=1.0)):
            assert worker_fault_plan() is None

    def test_exception_mode_raises_injected_fault(self):
        plan = FaultPlan(seed=0, exception_rate=1.0)
        with pytest.raises(InjectedFault):
            plan.apply_before_run(3, 0)


# ---------------------------------------------------------------------------
# Default policy (no retries): isolate and name the failing job
# ---------------------------------------------------------------------------
#: Faults some of jobs 0..5 and none of 100..103 (pinned by the first test
#: below).  Forked workers keep the plan they were born with, so a follow-up
#: batch on the same pool must use ids the plan leaves alone.
EXCEPTION_PLAN = FaultPlan(seed=30, exception_rate=0.5)
FAULTY = [j for j in range(6) if EXCEPTION_PLAN.mode_for(j, 0) == "exception"]


class TestPlainPoolChunkFailure:
    def test_worker_exception_names_the_jobs_not_the_chunk(self):
        assert FAULTY and len(FAULTY) < 6
        assert all(EXCEPTION_PLAN.mode_for(j, 0) is None for j in range(100, 104))
        with ProcessPoolBackend(max_workers=2, chunk_jobs=3) as backend:
            assert backend.retry.max_attempts == 1  # the default: no retries
            with fault_plan_installed(EXCEPTION_PLAN):
                with pytest.raises(PoisonJobError) as excinfo:
                    backend.run_batch(make_jobs())
            # Bisection pinned the failure on the faulty jobs alone — their
            # chunk mates are not named, and the error counts the whole batch.
            assert sorted(f.job_id for f in excinfo.value.failures) == FAULTY
            assert {f.kind for f in excinfo.value.failures} == {"exception"}
            assert excinfo.value.total_jobs == 6
            assert backend.pool_rebuilds == 0  # an exception leaves the pool up

    def test_pool_remains_usable_after_chunk_failure(self, serial_results):
        # on_failure="return" shows the rest of the batch completed, and the
        # same executor serves the next batch.
        with ProcessPoolBackend(
            max_workers=2, chunk_jobs=3, on_failure="return"
        ) as backend:
            with fault_plan_installed(EXCEPTION_PLAN):
                results = backend.run_batch(make_jobs())
                for index, result in enumerate(results):
                    if index in FAULTY:
                        assert isinstance(result, JobFailure)
                        assert result.job_id == index
                    else:
                        assert result == serial_results[index]
                executor = backend._executor
                follow_up = backend.run_batch(make_jobs(4, first_id=100))
            assert backend._executor is executor
        assert [r.job_id for r in follow_up] == [100, 101, 102, 103]

    def test_chunk_result_mismatch_helper(self):
        jobs = make_jobs(2)
        results = SerialBackend().run_batch(jobs)
        assert chunk_result_mismatch(jobs, results) is None
        assert "expected" in chunk_result_mismatch(jobs, results[::-1])
        assert chunk_result_mismatch(jobs, results[:1]) is not None


# ---------------------------------------------------------------------------
# ProcessPoolBackend with a retry policy: survival scenarios
# ---------------------------------------------------------------------------
class TestResilientBackend:
    def test_on_failure_validated(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(on_failure="ignore")

    def test_clean_run_matches_serial(self, serial_results):
        with ProcessPoolBackend(max_workers=2, chunk_jobs=2) as backend:
            results = backend.run_batch(make_jobs())
        assert results == serial_results
        assert backend.pool_rebuilds == 0 and not backend.degraded

    def test_worker_crash_resubmits_lost_chunks(self, serial_results):
        # Every job's first attempt dies via os._exit in the worker; the
        # pool breaks, is rebuilt, and the lost chunks are re-executed.
        plan = FaultPlan(seed=7, crash_rate=1.0, max_faulty_attempts=1)
        retry = RetryPolicy(
            max_attempts=5, backoff_base=0.01, backoff_max=0.02, max_pool_rebuilds=20
        )
        with fault_plan_installed(plan):
            with ProcessPoolBackend(
                max_workers=2, chunk_jobs=2, retry=retry
            ) as backend:
                results = backend.run_batch(make_jobs())
        assert results == serial_results
        assert backend.pool_rebuilds >= 1

    def test_injected_exceptions_are_retried(self, serial_results):
        plan = FaultPlan(seed=7, exception_rate=1.0, max_faulty_attempts=1)
        retry = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)
        with fault_plan_installed(plan):
            with ProcessPoolBackend(
                max_workers=2, chunk_jobs=2, retry=retry
            ) as backend:
                results = backend.run_batch(make_jobs())
        assert results == serial_results
        assert backend.pool_rebuilds == 0  # exceptions don't break the pool

    def test_corrupt_results_are_rejected_and_retried(self, serial_results):
        plan = FaultPlan(seed=7, corrupt_rate=1.0, max_faulty_attempts=1)
        retry = RetryPolicy(max_attempts=4, backoff_base=0.0, jitter=0.0)
        with fault_plan_installed(plan):
            with ProcessPoolBackend(
                max_workers=2, chunk_jobs=2, retry=retry
            ) as backend:
                results = backend.run_batch(make_jobs())
        assert results == serial_results
        assert all(r.job_id != CORRUPTED_JOB_ID for r in results)

    def test_hung_worker_is_timed_out_and_killed(self, serial_results):
        # First attempt of every job hangs for 60s; the 1s chunk timeout
        # must fire, terminate the hung worker, rebuild and retry.
        plan = FaultPlan(
            seed=7, hang_rate=1.0, hang_seconds=60.0, max_faulty_attempts=1
        )
        retry = RetryPolicy(
            max_attempts=4,
            chunk_timeout=1.0,
            backoff_base=0.01,
            backoff_max=0.02,
            max_pool_rebuilds=20,
        )
        with fault_plan_installed(plan):
            with ProcessPoolBackend(
                max_workers=2, chunk_jobs=3, retry=retry
            ) as backend:
                results = backend.run_batch(make_jobs())
        assert results == serial_results
        assert backend.pool_rebuilds >= 1

    def test_poison_job_bisected_to_job_failure_raise_mode(self):
        plan = FaultPlan(seed=7, poison_jobs=(3,))
        retry = RetryPolicy(
            max_attempts=2, backoff_base=0.01, backoff_max=0.02, max_pool_rebuilds=50
        )
        with fault_plan_installed(plan):
            with ProcessPoolBackend(
                max_workers=2, chunk_jobs=2, retry=retry
            ) as backend:
                with pytest.raises(PoisonJobError) as excinfo:
                    backend.run_batch(make_jobs())
        # Solo confirmation: ONLY the poison job is condemned — its chunk
        # mates and pool-break collateral all complete.
        assert [f.job_id for f in excinfo.value.failures] == [3]
        assert excinfo.value.failures[0].kind == "crash"
        assert excinfo.value.total_jobs == 6
        assert "job 3" in str(excinfo.value)

    def test_poison_job_return_mode_keeps_other_results(self, serial_results):
        plan = FaultPlan(seed=7, poison_jobs=(3,))
        retry = RetryPolicy(
            max_attempts=2, backoff_base=0.01, backoff_max=0.02, max_pool_rebuilds=50
        )
        with fault_plan_installed(plan):
            with ProcessPoolBackend(
                max_workers=2, chunk_jobs=2, retry=retry, on_failure="return"
            ) as backend:
                results = backend.run_batch(make_jobs())
        assert isinstance(results[3], JobFailure)
        assert results[3].job_id == 3
        for index in (0, 1, 2, 4, 5):
            assert results[index] == serial_results[index]

    def test_degrades_to_serial_after_rebuild_budget(self, serial_results):
        # Workers crash on *every* attempt; after max_pool_rebuilds the
        # backend must stop trusting the pool and finish in-process
        # (injection is worker-gated, so the serial path is clean).
        plan = FaultPlan(seed=7, crash_rate=1.0)
        retry = RetryPolicy(
            max_attempts=100, backoff_base=0.0, jitter=0.0, max_pool_rebuilds=1
        )
        with fault_plan_installed(plan):
            with ProcessPoolBackend(
                max_workers=2, chunk_jobs=2, retry=retry
            ) as backend:
                results = backend.run_batch(make_jobs())
        assert backend.degraded
        assert results == serial_results

    def test_degradation_lasts_one_batch_not_the_pool_lifetime(self, serial_results):
        # Batch 1 spends the rebuild budget and degrades.  Batch 2 (plan
        # cleared, so the fresh workers are born fault-free) must get a
        # fresh budget and run on real workers, not in this process.
        retry = RetryPolicy(
            max_attempts=100, backoff_base=0.0, jitter=0.0, max_pool_rebuilds=1
        )
        with ProcessPoolBackend(max_workers=2, chunk_jobs=2, retry=retry) as backend:
            with fault_plan_installed(FaultPlan(seed=7, crash_rate=1.0)):
                backend.run_batch(make_jobs())
            assert backend.degraded and backend.pool_rebuilds == 2
            results = backend.run_batch(make_jobs())
            assert not backend.degraded and backend.pool_rebuilds == 0
            assert backend._executor is not None  # workers were started
        assert results == serial_results

    def test_backoff_goes_through_the_injected_clock(self):
        # With a FakeClock, retries record their backoff waits instead of
        # really sleeping — this test completing quickly IS the assertion
        # that no real sleep happens on the retry path.
        clock = FakeClock()
        plan = FaultPlan(seed=7, exception_rate=1.0, max_faulty_attempts=1)
        retry = RetryPolicy(max_attempts=3, backoff_base=0.5, backoff_max=2.0, seed=2)
        with fault_plan_installed(plan):
            with ProcessPoolBackend(
                max_workers=2, chunk_jobs=3, retry=retry, clock=clock
            ) as backend:
                backend.run_batch(make_jobs())
        assert clock.sleeps, "retries should have waited via the clock"
        # Every recorded wait is a deterministic RetryPolicy delay for some
        # (attempt, chunk-start) pair.
        valid = {
            round(retry.backoff_seconds(attempt, key=start), 12)
            for attempt in (1, 2)
            for start in (0, 3)
        }
        assert {round(delay, 12) for delay in clock.sleeps} <= valid

    def test_empty_batch(self):
        with ProcessPoolBackend(max_workers=1) as backend:
            assert backend.run_batch([]) == []


# ---------------------------------------------------------------------------
# Spec grammar (satellite fix)
# ---------------------------------------------------------------------------
class TestSpecGrammar:
    def test_retries_arm_builds_resilient_backend(self):
        backend = backend_from_spec("process:2:3:4")
        assert type(backend) is ProcessPoolBackend
        assert backend.max_workers == 2
        assert backend.chunk_jobs == 3
        assert backend.retry.max_attempts == 4
        backend.close()
        backend = backend_from_spec("process:::5")
        assert backend.retry.max_attempts == 5
        backend.close()

    def test_plain_process_specs_still_plain(self):
        # The retries field selects no other class: it only sets
        # retry.max_attempts, which without it is 1 ("no retries").
        plain = backend_from_spec("process:2:4")
        retrying = backend_from_spec("process:2:4:3")
        assert type(plain) is type(retrying) is ProcessPoolBackend
        assert plain.retry == RetryPolicy(max_attempts=1)
        assert retrying.retry == RetryPolicy(max_attempts=3)
        for attr in ("max_workers", "chunk_jobs", "on_failure"):
            assert getattr(plain, attr) == getattr(retrying, attr)

    @pytest.mark.parametrize(
        "spec", ["process:x", "process:0", "process:-2", "process:1:2:3:4", "gpu"]
    )
    def test_malformed_specs_raise_instructive_errors(self, spec):
        with pytest.raises(ValueError) as excinfo:
            backend_from_spec(spec)
        assert "process[:workers[:chunk[:retries]]]" in str(excinfo.value)

    def test_field_name_in_error(self):
        with pytest.raises(ValueError, match="workers"):
            backend_from_spec("process:zero")
        with pytest.raises(ValueError, match="chunk"):
            backend_from_spec("process:1:huge")
        with pytest.raises(ValueError, match="retries"):
            backend_from_spec("process:1:1:no")

    def test_unknown_family_error_lists_every_family(self):
        with pytest.raises(ValueError) as excinfo:
            backend_from_spec("gpu:8")
        message = str(excinfo.value)
        assert "'serial'" in message
        assert "'process'" in message
        assert "'queue'" not in message

    def test_queue_is_an_unknown_family(self):
        # It was a family once; it is now as unknown as any other.
        with pytest.raises(ValueError, match="family 'queue' is not one of"):
            backend_from_spec("queue::0")


# ---------------------------------------------------------------------------
# Golden-matrix chaos parity (the acceptance sweep)
# ---------------------------------------------------------------------------
CHAOS_CELLS = (
    scenario_names() if CHAOS_FULL else sorted(s.name for s in smoke_scenarios())
)

#: Over 40% of (job, attempt) pairs crash, and a few hang briefly or come
#: back corrupted, so one sweep exercises the pool-break, slow-chunk and
#: rejected-result paths.  Retries re-roll, so with a generous attempt
#: budget every cell eventually lands a clean execution.
CHAOS_PLAN = FaultPlan(
    seed=1302,
    crash_rate=0.415,
    hang_rate=0.03,
    corrupt_rate=0.03,
    hang_seconds=0.3,
    max_faulty_attempts=3,
)
CHAOS_RETRY = RetryPolicy(
    max_attempts=25, backoff_base=0.0, jitter=0.0, max_pool_rebuilds=10_000
)


@pytest.mark.parametrize("cell_name", CHAOS_CELLS)
def test_chaos_golden_parity(cell_name):
    """The committed fingerprints survive a 41%-crash-rate chaos run.

    This is the determinism-under-retry acceptance criterion: a
    pool run with four in ten chunk attempts dying mid-flight must
    reproduce each cell's committed golden fingerprint bit-identically.
    """
    golden = load_golden()
    job = SimJob.from_scenario(cell_name)
    with fault_plan_installed(CHAOS_PLAN):
        with ProcessPoolBackend(
            max_workers=2, chunk_jobs=1, retry=CHAOS_RETRY
        ) as backend:
            [result] = backend.run_batch([job])
    assert simulation_fingerprint(result.result) == golden[cell_name], (
        f"{cell_name} fingerprint diverged under fault injection — the "
        "retry path is not a pure re-execution"
    )
