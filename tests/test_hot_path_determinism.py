"""Determinism guarantees of the flattened hot path (PR 2).

The tuple-heap scheduler, the octant/last-leaf whisker lookup and the
frontier-based ACK bookkeeping are pure performance work: same-seed serial
runs must stay bit-identical.  These tests pin the three properties the
rewrite relies on:

* same-seed, same-config runs reproduce identical flow statistics and event
  counts;
* the per-protocol last-leaf cache never changes which rule an ACK hits,
  including across ``split_whisker`` (the cache-invalidation invariant);
* ``run_cells`` (whole-grid batching) returns exactly what one call per
  (cell, scheme) point returns.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.memory import MAX_MEMORY, Memory
from repro.core.serialization import pretrained_remycc
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.path import PathSpec
from repro.netsim.packet import AckInfo
from repro.netsim.simulator import Simulation
from repro.protocols.newreno import NewReno
from repro.protocols.remycc import RemyCCProtocol
from repro.traffic.onoff import ByteFlowWorkload


def _flow_fingerprint(result):
    return [
        (
            s.flow_id,
            s.bytes_received,
            s.packets_received,
            s.packets_sent,
            s.retransmissions,
            s.losses_detected,
            s.timeouts,
            s.on_time,
            s.queue_delay_sum,
            s.queue_delay_count,
            s.rtt_sum,
            s.rtt_count,
        )
        for s in result.flow_stats
    ]


def _run(queue="droptail", seed=11, remy=False, duration=3.0):
    spec = PathSpec.dumbbell(
        rate_bps=8e6, rtt=0.06, n_flows=3, queue=queue, buffer_packets=150
    )
    if remy:
        tree = pretrained_remycc("delta1")
        protocols = [RemyCCProtocol(tree) for _ in range(3)]
    else:
        protocols = [NewReno() for _ in range(3)]
    workloads = [
        ByteFlowWorkload.exponential(mean_flow_bytes=50e3, mean_off_seconds=0.3)
        for _ in range(3)
    ]
    sim = Simulation(spec, protocols, workloads, duration=duration, seed=seed)
    return sim.run()


class TestSameSeedBitIdentical:
    @pytest.mark.parametrize("queue", ["droptail", "codel", "sfqcodel", "red"])
    def test_newreno_runs_reproduce_exactly(self, queue):
        first = _run(queue=queue)
        second = _run(queue=queue)
        assert first.events_processed == second.events_processed
        assert first.queue_drops == second.queue_drops
        assert _flow_fingerprint(first) == _flow_fingerprint(second)

    def test_remycc_runs_reproduce_exactly(self):
        first = _run(remy=True)
        second = _run(remy=True)
        assert first.events_processed == second.events_processed
        assert _flow_fingerprint(first) == _flow_fingerprint(second)

    def test_distinct_seeds_diverge(self):
        # Sanity check that the fingerprint is sensitive at all.
        assert _flow_fingerprint(_run(seed=11)) != _flow_fingerprint(_run(seed=12))


coords = st.floats(min_value=-10.0, max_value=MAX_MEMORY * 1.1, allow_nan=False)


def _ack(now, echo_sent_time, rtt):
    return AckInfo(now, 1500, rtt, echo_sent_time, False, 1, 0.0)


class TestLastLeafCache:
    """The cached lookup inside ``on_ack`` must be indistinguishable from
    ``tree.find`` (in training mode the rule an ACK hit is the one whose use
    count moved).  ``tests/test_remycc_equivalence.py`` holds the step-by-step
    comparison against an uncached reference."""

    def _protocol_with_splits(self, n_splits=4, seed=0):
        tree = pretrained_remycc("delta10")
        rng = random.Random(seed)
        for _ in range(n_splits):
            point = Memory(rng.uniform(0, 600), rng.uniform(0, 600), rng.uniform(0, 6))
            whisker = tree.find(point)
            whisker.use(point)
            tree.split_whisker(whisker)
        tree.reset_statistics()
        return RemyCCProtocol(tree, training=True), tree

    @given(points=st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_cached_lookup_matches_uncached_find(self, points):
        # Each point drives one ACK: (ACK gap ms, echo gap ms — negative steps
        # the echo clock backwards —, RTT as a multiple of 50 ms).
        protocol, tree = self._protocol_with_splits()
        now = echo = 0.0
        for ack_gap_ms, echo_gap_ms, ratio in points:
            now += max(ack_gap_ms, 0.0) / 1000.0
            echo += echo_gap_ms / 1000.0
            before = {id(w): w.use_count for w in tree.whiskers()}
            protocol.on_ack(_ack(now, echo, 0.05 * ratio if ratio >= 1.0 else None))
            hit = [w for w in tree.whiskers() if w.use_count != before[id(w)]]
            assert len(hit) == 1 and hit[0] is tree.find(protocol.memory)

    def test_cache_invalidated_by_split_whisker(self):
        protocol, tree = self._protocol_with_splits(n_splits=0)
        protocol.on_ack(_ack(1.0, 0.9, 0.12))
        leaf = tree.find(protocol.memory)
        protocol.on_ack(_ack(1.0, 0.9, 0.12))  # same memory: cache hit
        assert leaf.use_count == 2
        tree.split_whisker(leaf)  # bumps tree.version
        protocol.on_ack(_ack(1.0, 0.9, 0.12))
        fresh = tree.find(protocol.memory)
        assert fresh is not leaf
        assert (leaf.use_count, fresh.use_count) == (2, 1)

    def test_cache_sees_an_in_place_action_swap(self):
        from repro.core.action import Action

        tree = WhiskerTree()
        protocol = RemyCCProtocol(tree)
        protocol.on_ack(_ack(1.0, 0.9, 0.1))
        window = protocol.cwnd
        new_action = Action(1.2, 3.0, 0.5)
        tree.find(protocol.memory).action = new_action  # no version bump
        protocol.on_ack(_ack(1.0, 0.9, 0.1))
        assert protocol.cwnd == new_action.apply(window)
        assert protocol.intersend_time == new_action.intersend_seconds

    def test_training_counts_match_uncached_reference(self):
        # Two identical simulations, one consulted through the protocol (with
        # cache), one replayed against a reference tree via tree.use: the
        # per-whisker use counts must agree.
        spec = PathSpec.dumbbell(
            rate_bps=8e6, rtt=0.06, n_flows=2, queue="droptail", buffer_packets=150
        )
        tree_a = pretrained_remycc("delta1")
        tree_b = pretrained_remycc("delta1")
        for tree in (tree_a, tree_b):
            Simulation(
                spec,
                [RemyCCProtocol(tree, training=True) for _ in range(2)],
                None,
                duration=2.0,
                seed=5,
            ).run()
        counts_a = [w.use_count for w in tree_a.whiskers()]
        counts_b = [w.use_count for w in tree_b.whiskers()]
        assert counts_a == counts_b
        assert sum(counts_a) > 0


class TestRunSchemesSharding:
    def test_run_schemes_matches_per_scheme_batches(self):
        # A multi-cell, multi-scheme grid in one run_cells call equals the
        # same (cell, scheme) points run one call at a time.
        from repro.analysis.summary import summarize_runs
        from repro.experiments.base import Grid, SchemeSpec, run_cells
        from repro.scenarios import ProtocolSpec, ScenarioSpec

        cells = [
            ScenarioSpec(
                name=f"sharding-{n_flows}flows",
                description="dumbbell for the grid-vs-single-call check",
                topology="dumbbell",
                network=PathSpec.dumbbell(
                    rate_bps=6e6, rtt=0.1, n_flows=n_flows, queue="droptail",
                    buffer_packets=200,
                ),
                workloads=(ByteFlowWorkload.exponential(mean_flow_bytes=40e3, mean_off_seconds=0.4),),
            )
            for n_flows in (2, 3)
        ]
        schemes = [
            SchemeSpec("NewReno", ProtocolSpec("newreno")),
            SchemeSpec("Vegas", ProtocolSpec("vegas")),
            SchemeSpec("NewReno/sfqCoDel", ProtocolSpec("newreno"), queue="sfqcodel"),
        ]
        run_kwargs = dict(n_runs=2, duration=3.0, base_seed=9)
        batched = [
            summarize_runs(scheme.name, runs)
            for cell_runs in run_cells(Grid(cells, schemes, **run_kwargs))[0]
            for scheme, runs in zip(schemes, cell_runs)
        ]
        individual = [
            summarize_runs(scheme.name, run_cells(Grid([cell], [scheme], **run_kwargs))[0][0][0])
            for cell in cells
            for scheme in schemes
        ]
        assert [s.scheme for s in batched] == [s.scheme for s in individual]
        for one, other in zip(batched, individual):
            assert one.throughputs_mbps == other.throughputs_mbps
            assert one.queue_delays_ms == other.queue_delays_ms
