"""Tests for the crash-safe distributed evaluation service.

Three layers, from pure to end-to-end:

* **Pure state** — :class:`LeaseQueue` scheduling (lease expiry and
  re-assignment under fresh chunk ids, heartbeat eviction, duplicate- and
  late-result idempotency, poison condemnation through the shared
  ``record_failure`` machinery) and the :mod:`repro.runner.wire` framing
  (checksum rejection, partial-feed reassembly).  Time is always an
  explicit argument or a :class:`FakeClock` — nothing here sleeps.
* **Content-addressed cache** — key derivation is content-not-identity
  (insensitive to ``job_id``, tree names and whisker epochs), and cache
  hits are **bit-identical** to recomputation, in memory and on disk.
* **Loopback integration** — a real coordinator (``QueueBackend``) with
  real worker subprocesses: clean parity against serial, the golden-matrix
  chaos parity sweep under network *and* legacy fault injection, and a
  full optimizer run (including a checkpoint/resume boundary) over the
  queue backend matching the serial run bit-for-bit.

Gating mirrors ``test_resilience.py``: the distributed chaos sweep covers
the smoke scenario cells by default; ``CHAOS_MATRIX=full`` (the CI chaos
job) covers every registered cell.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Optional

import pytest

from repro.core.config import ConfigRange, ParameterRange, general_purpose_range
from repro.core.evaluator import Evaluator, EvaluatorSettings
from repro.core.objective import Objective
from repro.core.optimizer import OptimizerSettings, RemyOptimizer
from repro.core.serialization import whisker_tree_to_dict
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.network import NetworkSpec
from repro.protocols.newreno import NewReno
from repro.runner import (
    CachingBackend,
    FakeClock,
    FaultPlan,
    JobFailure,
    LeaseQueue,
    QueueBackend,
    ResultCache,
    RetryPolicy,
    SerialBackend,
    SimJob,
    backend_from_spec,
    fault_plan_installed,
    job_cache_key,
    whisker_tree_token,
    wire,
)
from repro.scenarios import (
    load_golden,
    scenario_names,
    simulation_fingerprint,
    smoke_scenarios,
)

CHAOS_FULL = os.environ.get("CHAOS_MATRIX", "").lower() in {"full", "all", "1"}

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

SPEC = NetworkSpec(
    link_rate_bps=4e6, rtt=0.08, n_flows=2, queue="droptail", buffer_packets=100
)


def make_jobs(n: int = 4, duration: float = 0.5, first_id: int = 0) -> list[SimJob]:
    return [
        SimJob(
            job_id=first_id + i,
            spec=SPEC,
            duration=duration,
            seed=100 + first_id + i,
            protocol_factory=NewReno,
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def serial4():
    return SerialBackend().run_batch(make_jobs(4))


# ---------------------------------------------------------------------------
# Wire framing
# ---------------------------------------------------------------------------
class TestWire:
    def test_frame_round_trip_through_buffer(self):
        buffer = wire.FrameBuffer()
        buffer.feed(wire.frame(b"alpha") + wire.frame(b"beta"))
        assert buffer.next_frame() == b"alpha"
        assert buffer.next_frame() == b"beta"
        assert buffer.next_frame() is None

    def test_partial_feeds_reassemble(self):
        # Byte-at-a-time delivery (the TCP worst case) still yields exactly
        # one frame, only once the final byte lands.
        data = wire.frame(b"payload bytes")
        buffer = wire.FrameBuffer()
        for byte in data[:-1]:
            buffer.feed(bytes([byte]))
            assert buffer.next_frame() is None
        buffer.feed(data[-1:])
        assert buffer.next_frame() == b"payload bytes"

    def test_corrupt_frame_is_rejected_by_checksum(self):
        buffer = wire.FrameBuffer()
        buffer.feed(wire.corrupt_frame(b"damaged"))
        with pytest.raises(wire.FrameError, match="checksum"):
            buffer.next_frame()

    def test_oversized_length_field_is_rejected(self):
        buffer = wire.FrameBuffer()
        buffer.feed(wire.HEADER.pack(wire.MAX_FRAME_BYTES + 1, 0))
        with pytest.raises(wire.FrameError, match="stream corrupt"):
            buffer.next_frame()
        with pytest.raises(wire.FrameError):
            wire.frame(b"x" * (wire.MAX_FRAME_BYTES + 1))

    def test_decode_message_requires_typed_object(self):
        assert wire.decode_message(wire.encode_message({"type": "poll"})) == {
            "type": "poll"
        }
        with pytest.raises(wire.FrameError):
            wire.decode_message(b"\xff\xfe not json")
        with pytest.raises(wire.FrameError):
            wire.decode_message(b"[1, 2, 3]")
        with pytest.raises(wire.FrameError):
            wire.decode_message(b'{"no_type": 1}')

    def test_payload_codec_is_exact_and_detects_garbage(self):
        jobs = make_jobs(2)
        decoded = wire.decode_payload(wire.encode_payload(jobs))
        assert pickle.dumps(decoded) == pickle.dumps(jobs)
        with pytest.raises(wire.FrameError):
            wire.decode_payload("!!! not base64-pickle !!!")


# ---------------------------------------------------------------------------
# LeaseQueue: the pure scheduling state machine (no sockets, no real time)
# ---------------------------------------------------------------------------
def fresh_queue(
    jobs: Optional[list[SimJob]] = None,
    *,
    chunk_jobs: int = 2,
    max_attempts: int = 4,
    lease_timeout: float = 10.0,
    heartbeat_timeout: float = 100.0,
) -> LeaseQueue:
    return LeaseQueue(
        jobs if jobs is not None else make_jobs(4),
        chunk_jobs=chunk_jobs,
        max_attempts=max_attempts,
        lease_timeout=lease_timeout,
        heartbeat_timeout=heartbeat_timeout,
    )


class TestLeaseQueue:
    def test_validation(self):
        with pytest.raises(ValueError):
            fresh_queue(chunk_jobs=0)
        with pytest.raises(ValueError):
            fresh_queue(max_attempts=0)
        with pytest.raises(ValueError):
            fresh_queue(lease_timeout=0.0)
        with pytest.raises(ValueError):
            fresh_queue(heartbeat_timeout=-1.0)

    def test_clean_batch_completes_in_order(self, serial4):
        queue = fresh_queue()
        queue.register("w1", 0.0)
        first = queue.lease("w1", 0.0)
        second = queue.lease("w1", 0.0)
        assert first is not None and second is not None
        assert first[1].start == 0 and second[1].start == 2
        assert first[0] != second[0]
        assert queue.lease("w1", 0.0) is None  # nothing left to hand out
        assert queue.complete(first[0], serial4[0:2], 1.0) == "accepted"
        assert not queue.done
        assert queue.complete(second[0], serial4[2:4], 1.0) == "accepted"
        assert queue.done
        assert queue.completed_chunks == 2
        assert [r.job_id for r in queue.results] == [0, 1, 2, 3]
        assert queue.failures == []

    def test_expired_lease_is_requeued_under_a_fresh_chunk_id(self, serial4):
        queue = fresh_queue(lease_timeout=10.0)
        queue.register("w1", 0.0)
        chunk_id, item = queue.lease("w1", 0.0)
        queue.lease("w1", 5.0)  # second chunk out too (deadline 15.0)
        queue.expire(9.9)
        assert queue.expired_leases == 0  # deadline not reached yet
        queue.expire(10.0)
        assert queue.expired_leases == 1  # only the first lease is overdue
        # The item comes back under a *different* chunk id with the failed
        # attempt charged — this is the re-assignment path.
        rechunk_id, reitem = queue.lease("w1", 11.0)
        assert rechunk_id != chunk_id
        assert reitem.start == item.start
        assert reitem.attempt == item.attempt + 1
        # The straggler's late result has no lease to land in: idempotent.
        assert queue.complete(chunk_id, serial4[0:2], 12.0) == "stale"
        assert queue.stale_results == 1
        assert queue.results[0] is None
        # The re-leased execution lands normally.
        assert queue.complete(rechunk_id, serial4[0:2], 12.5) == "accepted"
        assert queue.results[0] == serial4[0]

    def test_duplicate_result_is_discarded_idempotently(self, serial4):
        queue = fresh_queue()
        queue.register("w1", 0.0)
        chunk_id, _item = queue.lease("w1", 0.0)
        assert queue.complete(chunk_id, serial4[0:2], 1.0) == "accepted"
        snapshot = pickle.dumps(queue.results)
        # The identical result arrives again (the duplicate fault mode):
        # the lease is gone, so it must be discarded without touching slots.
        assert queue.complete(chunk_id, serial4[0:2], 1.5) == "stale"
        assert pickle.dumps(queue.results) == snapshot
        assert queue.stale_results == 1

    def test_silent_worker_is_evicted_and_its_lease_recovered(self):
        queue = fresh_queue(make_jobs(2), heartbeat_timeout=5.0)
        queue.register("w1", 0.0)
        queue.register("w2", 0.0)
        chunk_id, item = queue.lease("w1", 0.0)
        queue.heartbeat("w2", 6.0)
        queue.expire(6.0)  # w1 silent for 6.0s > 5.0s
        assert queue.evicted_workers == 1
        assert queue.live_worker_count() == 1
        assert not queue.is_registered("w1")
        assert queue.heartbeat("w1", 6.5) is False  # must re-register
        # The dead worker's lease was charged and re-queued; the surviving
        # worker picks it up under a fresh id.
        rechunk_id, reitem = queue.lease("w2", 7.0)
        assert rechunk_id != chunk_id
        assert reitem.start == item.start and reitem.attempt == 1

    def test_disconnect_charges_every_lease_of_that_worker(self):
        queue = fresh_queue(make_jobs(2), chunk_jobs=1)
        queue.register("w1", 0.0)
        queue.lease("w1", 0.0)
        queue.lease("w1", 0.0)
        queue.disconnect("w1", 1.0)
        assert not queue.is_registered("w1")
        # Both items are pending again for whoever registers next.
        queue.register("w2", 2.0)
        first = queue.lease("w2", 2.0)
        second = queue.lease("w2", 2.0)
        assert first is not None and second is not None
        assert first[1].attempt == 1 and second[1].attempt == 1

    def test_invalid_results_are_rejected_and_retried(self, serial4):
        queue = fresh_queue(make_jobs(2))
        queue.register("w1", 0.0)
        chunk_id, _item = queue.lease("w1", 0.0)
        # Wrong jobs' results (id mismatch) → rejected, charged, re-queued.
        assert queue.complete(chunk_id, serial4[2:4], 1.0) == "rejected"
        assert queue.results[0] is None
        chunk_id, item = queue.lease("w1", 2.0)
        assert item.attempt == 1
        # Not even a result list → rejected too.
        assert queue.complete(chunk_id, "garbage", 3.0) == "rejected"
        chunk_id, item = queue.lease("w1", 4.0)
        assert item.attempt == 2
        assert queue.complete(chunk_id, serial4[0:2], 5.0) == "accepted"

    def test_stale_failure_report_is_ignored(self):
        queue = fresh_queue()
        assert queue.fail(999, "exception", "late report", 1.0) is False
        assert queue.stale_results == 1
        assert queue.failures == []

    def test_exhausted_attempts_condemn_structured_failures(self):
        # Every attempt fails: retry, bisection and solo confirmation all
        # burn through record_failure until each job is condemned.
        queue = fresh_queue(max_attempts=1)
        queue.register("w1", 0.0)
        now = 0.0
        for _ in range(64):
            if queue.done:
                break
            leased = queue.lease("w1", now)
            assert leased is not None
            queue.fail(leased[0], "exception", "injected: always fails", now)
            now += 1.0
        assert queue.done
        assert all(isinstance(entry, JobFailure) for entry in queue.results)
        assert sorted(f.job_id for f in queue.failures) == [0, 1, 2, 3]
        assert all(f.kind == "exception" for f in queue.failures)

    def test_drain_hands_back_all_unfinished_work(self, serial4):
        queue = fresh_queue()
        queue.register("w1", 0.0)
        chunk_id, _item = queue.lease("w1", 0.0)
        assert queue.complete(chunk_id, serial4[0:2], 1.0) == "accepted"
        chunk_id, _item = queue.lease("w1", 1.0)
        items = queue.drain()  # one leased + zero pending, minus satisfied
        assert [item.start for item in items] == [2]
        assert queue.lease("w1", 2.0) is None
        # The drained lease is dead: its result is stale now.
        assert queue.complete(chunk_id, serial4[2:4], 3.0) == "stale"


# ---------------------------------------------------------------------------
# QueueBackend without workers: validation + degradation (FakeClock, no I/O)
# ---------------------------------------------------------------------------
class TestQueueBackendDegradation:
    def test_validation(self):
        with pytest.raises(ValueError):
            QueueBackend(on_failure="ignore")
        with pytest.raises(ValueError):
            QueueBackend(chunk_jobs=0)
        with pytest.raises(ValueError):
            QueueBackend(worker_wait=0.0)

    def test_degrades_to_serial_bit_identically(self, serial4):
        clock = FakeClock()
        backend = QueueBackend(
            port=0, worker_wait=0.05, poll_interval=0.01, clock=clock
        )
        try:
            assert backend.address == f"{backend.host}:{backend.port}"
            assert backend.port != 0  # ephemeral bind resolved
            results = backend.run_batch(make_jobs(4))
        finally:
            backend.close()
        assert backend.degraded
        assert pickle.dumps(results) == pickle.dumps(serial4)
        # All waiting went through the injected clock: this test finishing
        # instantly IS the no-real-sleep assertion.
        assert clock.sleeps

    def test_cache_hits_skip_the_queue_entirely(self, serial4):
        cache = ResultCache()
        clock = FakeClock()
        backend = CachingBackend(
            QueueBackend(port=0, worker_wait=0.05, poll_interval=0.01, clock=clock),
            cache,
        )
        try:
            first = backend.run_batch(make_jobs(4))
            sleeps_after_first = len(clock.sleeps)
            second = backend.run_batch(make_jobs(4))
        finally:
            backend.close()
        assert pickle.dumps(first) == pickle.dumps(serial4)
        assert pickle.dumps(second) == pickle.dumps(serial4)
        assert cache.hits == 4
        # The second batch never pumped the event loop — pure cache.
        assert len(clock.sleeps) == sleeps_after_first

    def test_empty_batch_and_closed_backend(self):
        backend = QueueBackend(port=0, worker_wait=0.05, clock=FakeClock())
        assert backend.run_batch([]) == []
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            backend.run_batch(make_jobs(1))


# ---------------------------------------------------------------------------
# Content-addressed cache keys
# ---------------------------------------------------------------------------
class TestCacheKeys:
    def test_key_is_content_not_identity(self):
        a, b = make_jobs(2)
        b = replace(b, job_id=a.job_id + 7, seed=a.seed)
        assert job_cache_key(a) == job_cache_key(b)

    def test_seed_and_environment_enter_the_key(self):
        job = make_jobs(1)[0]
        assert job_cache_key(job) != job_cache_key(replace(job, seed=job.seed + 1))
        assert job_cache_key(job) != job_cache_key(
            replace(job, duration=job.duration + 1.0)
        )
        assert job_cache_key(job) != job_cache_key(replace(job, training=True))

    def test_factory_key_is_the_qualified_name(self):
        key = job_cache_key(make_jobs(1)[0])
        assert key is not None and key.startswith("factory:")
        assert "NewReno" in key

    def test_closure_factories_are_uncacheable(self):
        job = replace(make_jobs(1)[0], protocol_factory=lambda: NewReno())
        assert job_cache_key(job) is None

    def test_tree_token_ignores_name_and_epochs(self):
        one = WhiskerTree(name="alpha")
        other = WhiskerTree(name="beta")
        other.set_epoch(41)
        assert whisker_tree_token(one) == whisker_tree_token(other)


class TestResultCache:
    def test_memory_hit_is_bit_identical_and_isolated(self, serial4):
        cache = ResultCache()
        key = "tree:abc/env:def/100"
        cache.put(key, serial4[0])
        assert cache.get_bytes(key) == pickle.dumps(
            serial4[0], protocol=pickle.HIGHEST_PROTOCOL
        )
        first = cache.get(key)
        first.job_id = 999  # callers rewrite ids on hits
        second = cache.get(key)
        assert second.job_id == serial4[0].job_id  # store not corrupted
        assert pickle.dumps(second) == pickle.dumps(serial4[0])
        assert cache.hits == 3 and cache.misses == 0
        assert len(cache) == 1

    def test_miss_counting_and_stats(self):
        cache = ResultCache()
        assert cache.get("absent") is None
        assert cache.misses == 1
        assert "0 hits / 1 lookups" in cache.stats()

    def test_disk_round_trip_survives_a_fresh_process_view(self, tmp_path, serial4):
        store = tmp_path / "cache"
        first = ResultCache(store)
        first.put("some/key/1", serial4[1])
        # A different ResultCache over the same directory (a restarted run)
        # serves the identical bytes, and the atomic write left no temp file.
        second = ResultCache(store)
        assert pickle.dumps(second.get("some/key/1")) == pickle.dumps(serial4[1])
        assert second.get("some/other/key") is None
        assert not list(store.glob("*.tmp"))


class _CountingSerial(SerialBackend):
    """A serial backend that records what actually reached it."""

    def __init__(self) -> None:
        self.batches: list[list[int]] = []

    def run_batch(self, jobs):
        self.batches.append([job.job_id for job in jobs])
        return super().run_batch(jobs)


class TestCachingBackend:
    def test_second_batch_is_served_without_touching_the_inner(self, serial4):
        inner = _CountingSerial()
        backend = CachingBackend(inner, ResultCache())
        first = backend.run_batch(make_jobs(4))
        second = backend.run_batch(make_jobs(4))
        assert pickle.dumps(first) == pickle.dumps(serial4)
        assert pickle.dumps(second) == pickle.dumps(serial4)
        assert inner.batches == [[0, 1, 2, 3]]  # only the cold batch ran

    def test_partial_hits_run_only_the_misses(self, serial4):
        inner = _CountingSerial()
        backend = CachingBackend(inner, ResultCache())
        backend.run_batch(make_jobs(2))
        results = backend.run_batch(make_jobs(4))
        assert inner.batches == [[0, 1], [2, 3]]
        assert pickle.dumps(results) == pickle.dumps(serial4)

    def test_warm_training_evaluation_on_serial_is_all_hits(self):
        # Training statistics travel in the result, so a hit carries them:
        # nothing is simulated and the tree ends up exactly as after the
        # cold evaluation — also in-process, where statistics used to be a
        # side effect a hit would have skipped.
        cache = ResultCache()
        inner = _CountingSerial()
        evaluator = Evaluator(
            tiny_range(),
            settings=EvaluatorSettings(num_specimens=2, sim_duration=1.0, seed=3),
            backend=inner,
            cache=cache,
        )

        def usage(tree):
            return [(w.use_count, w.median_trigger().as_tuple()) for w in tree.whiskers()]

        cold_tree = WhiskerTree(name="cold")
        cold = evaluator.evaluate(cold_tree, training=True)
        assert sum(count for count, _ in usage(cold_tree)) > 0
        misses = cache.misses
        warm_tree = WhiskerTree(name="warm")
        warm = evaluator.evaluate(warm_tree, training=True)
        assert cache.misses == misses
        assert inner.batches == [[0, 1]]
        assert warm.score == cold.score
        assert usage(warm_tree) == usage(cold_tree)


# ---------------------------------------------------------------------------
# Spec grammar: the queue arm
# ---------------------------------------------------------------------------
class TestQueueSpec:
    def test_queue_spec_builds_a_bound_coordinator(self):
        backend = backend_from_spec("queue::0")
        try:
            assert isinstance(backend, QueueBackend)
            assert backend.host == "127.0.0.1"
            assert backend.port > 0
        finally:
            backend.close()

    def test_wait_field_sets_the_degradation_deadline(self):
        backend = backend_from_spec("queue:127.0.0.1:0:2.5")
        try:
            assert isinstance(backend, QueueBackend)
            assert backend.worker_wait == 2.5
        finally:
            backend.close()

    @pytest.mark.parametrize(
        "spec, needle",
        [
            ("queue", "host and a port"),
            ("queue:onlyhost", "host and a port"),
            ("queue::sevenK", "not an integer"),
            ("queue::70000", "[0, 65535]"),
            ("queue::0:soon", "not a number of seconds"),
            ("queue::0:-1", "positive"),
            ("queue:h:0:1:extra", "too many fields"),
        ],
    )
    def test_malformed_queue_specs_raise_instructive_errors(self, spec, needle):
        with pytest.raises(ValueError) as excinfo:
            backend_from_spec(spec)
        assert needle in str(excinfo.value)
        assert "queue:host:port[:wait]" in str(excinfo.value)

    def test_unknown_family_error_lists_every_family(self):
        with pytest.raises(ValueError) as excinfo:
            backend_from_spec("gpu:8")
        message = str(excinfo.value)
        assert "'serial'" in message
        assert "'process'" in message
        assert "'queue'" in message


# ---------------------------------------------------------------------------
# Loopback integration: real coordinator, real worker subprocesses
# ---------------------------------------------------------------------------
def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SRC) if not existing else str(SRC) + os.pathsep + existing
    )
    return env


@contextmanager
def spawn_workers(
    address: str,
    count: int,
    *,
    restarts: int = 0,
    io_timeout: float = 20.0,
) -> Iterator[list[subprocess.Popen]]:
    """Launch worker subprocesses against ``address``, kill them on exit."""
    command = [
        sys.executable,
        "-m",
        "repro.runner.distributed",
        "worker",
        address,
        "--io-timeout",
        str(io_timeout),
    ]
    if restarts:
        command += ["--restarts", str(restarts)]
    procs: list[subprocess.Popen] = []
    try:
        for _ in range(count):
            procs.append(
                subprocess.Popen(
                    command,
                    env=_worker_env(),
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        yield procs
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                proc.kill()
                proc.wait()


class TestLoopbackIntegration:
    def test_two_workers_match_serial_across_batches(self):
        jobs = make_jobs(6)
        serial = pickle.dumps(SerialBackend().run_batch(jobs))
        backend = QueueBackend(chunk_jobs=2, worker_wait=60.0)
        try:
            with spawn_workers(backend.address, 2):
                first = backend.run_batch(jobs)
                # A second batch reuses the same registered workers: the
                # batch serial must fence any stragglers from the first.
                second = backend.run_batch(jobs)
        finally:
            backend.close()
        assert not backend.degraded
        assert pickle.dumps(first) == serial
        assert pickle.dumps(second) == serial

    def test_coordinator_serves_its_cache_to_repeat_batches(self):
        jobs = make_jobs(4)
        serial = pickle.dumps(SerialBackend().run_batch(jobs))
        cache = ResultCache()
        queue = QueueBackend(chunk_jobs=2, worker_wait=60.0)
        backend = CachingBackend(queue, cache)
        try:
            with spawn_workers(queue.address, 2):
                first = backend.run_batch(jobs)
            # Workers are gone now; the repeat batch must still complete —
            # every job is a cache hit, so no lease is ever needed.
            second = backend.run_batch(jobs)
        finally:
            backend.close()
        assert pickle.dumps(first) == serial
        assert pickle.dumps(second) == serial
        assert cache.hits == 4
        assert not queue.degraded


# The distributed chaos sweep: every golden cell through the coordinator
# with workers injecting *both* vocabularies — legacy process faults
# (crash/exception, recovered by supervision and retry) and network faults
# (disconnect/stall/corrupt_frame/duplicate, recovered by leases,
# heartbeat eviction, checksum rejection and idempotent completion).
CHAOS_CELLS = (
    scenario_names() if CHAOS_FULL else sorted(s.name for s in smoke_scenarios())
)
CHAOS_PLAN = FaultPlan(
    seed=808,
    crash_rate=0.15,
    exception_rate=0.10,
    disconnect_rate=0.15,
    stall_rate=0.10,
    corrupt_frame_rate=0.10,
    duplicate_result_rate=0.15,
    stall_seconds=1.2,
    max_faulty_attempts=3,
)
CHAOS_RETRY = RetryPolicy(max_attempts=8, backoff_base=0.0, jitter=0.0)


class TestDistributedChaos:
    def test_chaos_golden_parity_distributed(self):
        golden = load_golden()
        jobs = [
            SimJob.from_scenario(name, job_id=index)
            for index, name in enumerate(CHAOS_CELLS)
        ]
        backend = QueueBackend(
            chunk_jobs=1,
            retry=CHAOS_RETRY,
            lease_timeout=60.0,
            heartbeat_timeout=1.0,  # stalls (1.2s silent) get evicted
            worker_wait=120.0,
        )
        with fault_plan_installed(CHAOS_PLAN):
            try:
                # Supervised workers: an injected crash takes the whole
                # process down, and the supervisor respawns it.
                with spawn_workers(backend.address, 2, restarts=1000):
                    results = backend.run_batch(jobs)
            finally:
                backend.close()
        assert not backend.degraded
        for name, result in zip(CHAOS_CELLS, results):
            assert simulation_fingerprint(result.result) == golden[name], (
                f"{name} fingerprint diverged through the distributed "
                "coordinator under fault injection"
            )


# ---------------------------------------------------------------------------
# The design loop over the queue backend (with a checkpoint/resume boundary)
# ---------------------------------------------------------------------------
def tiny_range() -> ConfigRange:
    return ConfigRange(
        link_speed_bps=ParameterRange.exact(4e6),
        rtt_seconds=ParameterRange.exact(0.08),
        n_senders=ParameterRange.exact(2),
        mean_on_seconds=ParameterRange.exact(2.0),
        mean_off_seconds=ParameterRange.exact(1.0),
    )


def make_evaluator(backend=None) -> Evaluator:
    return Evaluator(
        tiny_range(),
        Objective.proportional(delta=1.0),
        EvaluatorSettings(num_specimens=2, sim_duration=1.0, seed=3),
        backend=backend,
    )


OPTIMIZER_SETTINGS = OptimizerSettings(
    max_epochs=2,
    max_evaluations=120,
    epochs_per_split=2,
    improvement_threshold=0.05,
)


class TestOptimizerOverQueue:
    def test_queue_run_with_resume_matches_serial(self, tmp_path):
        reference = RemyOptimizer(
            make_evaluator(),
            tree=WhiskerTree(name="dist"),
            settings=OPTIMIZER_SETTINGS,
        )
        ref_tree = reference.optimize()

        # The same search over the distributed queue, interrupted at the
        # epoch-1 checkpoint and resumed — still bit-identical to serial.
        checkpoint = tmp_path / "design.ckpt.json"
        backend = QueueBackend(worker_wait=120.0)
        try:
            with spawn_workers(backend.address, 2):
                partial = RemyOptimizer(
                    make_evaluator(backend),
                    tree=WhiskerTree(name="dist"),
                    settings=replace(OPTIMIZER_SETTINGS, max_epochs=1),
                    checkpoint_path=checkpoint,
                )
                partial.optimize()
                assert partial.state.global_epoch == 1
                resumed = RemyOptimizer.resume_from_checkpoint(
                    checkpoint, make_evaluator(backend)
                )
                resumed.settings = replace(
                    resumed.settings, max_epochs=OPTIMIZER_SETTINGS.max_epochs
                )
                resumed_tree = resumed.optimize()
        finally:
            backend.close()
        assert not backend.degraded
        assert whisker_tree_to_dict(resumed_tree) == whisker_tree_to_dict(ref_tree)
        assert resumed.state.score_history == reference.state.score_history
        assert resumed.state.evaluations_used == reference.state.evaluations_used


# ---------------------------------------------------------------------------
# One statistics path: the designed tree does not depend on what ran the jobs
# ---------------------------------------------------------------------------
class TestSameTreeByConstruction:
    """The pinned design run of ``bench/`` (``design-serial`` / ``design-pool``).

    Its split evaluation fires the root rule more than the sample bound in
    one job, which is where in-place accumulation and merged worker deltas
    used to keep different samples: serial and pooled runs split the root at
    different points.
    """

    @staticmethod
    def design(backend, cache=None):
        evaluator = Evaluator(
            general_purpose_range(),
            Objective.proportional(1.0),
            EvaluatorSettings(num_specimens=2, sim_duration=2.0, seed=0),
            backend=backend,
            cache=cache,
        )
        optimizer = RemyOptimizer(
            evaluator,
            tree=WhiskerTree(name="pinned"),
            settings=OptimizerSettings(
                epochs_per_split=1, max_epochs=2, max_evaluations=105, candidate_magnitudes=1
            ),
        )
        tree = optimizer.optimize()
        return (
            whisker_tree_token(tree),
            tree._root.split_point,
            [repr(score) for score in optimizer.state.score_history],
        )

    def test_every_backend_designs_the_same_tree(self):
        outcomes = {"serial": self.design(SerialBackend())}
        outcomes["serial + cache"] = self.design(SerialBackend(), cache=ResultCache())
        for spec in ("process:2", "process:2:1", "process:2:7"):
            with backend_from_spec(spec) as backend:
                outcomes[spec] = self.design(backend)
        with QueueBackend(worker_wait=120.0) as backend:
            with spawn_workers(backend.address, 2):
                outcomes["queue"] = self.design(backend)
            assert not backend.degraded
        token, split_point, history = outcomes["serial"]
        assert split_point is not None and len(history) == 106
        for name, outcome in outcomes.items():
            assert outcome == (token, split_point, history), name
