"""Tests for the content-addressed result cache (``repro.runner.cache``).

* **Keys** are content, not identity: insensitive to ``job_id``, tree names
  and whisker epochs, sensitive to the seed and the simulated environment.
* **Hits are bit-identical** to recomputation, in memory and on disk, and
  never reach the wrapped backend.
* **A cache directory is outside input**: an entry that does not load as a
  ``SimJobResult`` is a counted miss that the recomputed result overwrites.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.core.config import ConfigRange, ParameterRange
from repro.core.evaluator import Evaluator, EvaluatorSettings
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.network import NetworkSpec
from repro.protocols.newreno import NewReno
from repro.runner import (
    CachingBackend,
    ResultCache,
    SerialBackend,
    SimJob,
    job_cache_key,
    whisker_tree_token,
)

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


def tiny_range() -> ConfigRange:
    return ConfigRange(
        link_speed_bps=ParameterRange.exact(4e6),
        rtt_seconds=ParameterRange.exact(0.08),
        n_senders=ParameterRange.exact(2),
        mean_on_seconds=ParameterRange.exact(2.0),
        mean_off_seconds=ParameterRange.exact(1.0),
    )


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
# Unreadable entries: a --cache directory is input from outside the process
# ---------------------------------------------------------------------------
def _truncated(entry: bytes) -> bytes:
    return entry[: len(entry) // 2]


class TestUnreadableEntry:
    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda entry: b"\x00garbage!", id="garbage-bytes"),
            pytest.param(_truncated, id="truncated-entry"),
            pytest.param(lambda entry: pickle.dumps({}), id="wrong-type-pickle"),
        ],
    )
    def test_entry_that_does_not_load_is_a_counted_miss(
        self, tmp_path, serial4, damage
    ):
        store = tmp_path / "cache"
        CachingBackend(SerialBackend(), ResultCache(store)).run_batch(make_jobs(1))
        [file] = store.glob("*.result.pkl")
        file.write_bytes(damage(file.read_bytes()))

        # A restarted run over the damaged directory: the job is recomputed
        # (bit-identical to an uncached run) and the entry replaced ...
        cache = ResultCache(store)
        inner = _CountingSerial()
        backend = CachingBackend(inner, cache)
        [recomputed] = backend.run_batch(make_jobs(1))
        assert pickle.dumps(recomputed) == pickle.dumps(serial4[0])
        assert inner.batches == [[0]]
        assert (cache.hits, cache.misses, cache.unreadable) == (0, 1, 1)
        assert "1 unreadable" in cache.stats()

        # ... so the next lookup is a clean hit, here and after a restart.
        restarted = ResultCache(store)
        for view in (cache, restarted):
            [again] = CachingBackend(inner, view).run_batch(make_jobs(1))
            assert pickle.dumps(again) == pickle.dumps(serial4[0])
        assert (cache.hits, cache.unreadable) == (1, 1)
        assert (restarted.hits, restarted.unreadable) == (1, 0)
        assert inner.batches == [[0]]
