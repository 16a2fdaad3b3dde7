"""Unit tests for the path topology engine.

The load-bearing contract: there is one topology spec and one network class.
The dumbbell is the one-forward-hop case of a path — ``PathSpec.dumbbell``
builds it, not a second spec or engine — and what only a dumbbell can do (the
scheduler's constant-delay lane, the seal in ``tests/test_seal.py``)
follows the path's shape, not the constructor that built it.  The goldens pin the numbers; these tests pin the
structure.
"""

import random
from dataclasses import replace

import pytest

from repro.netsim.events import EventScheduler
from repro.netsim.path import LinkSpec, PathNetwork, PathSpec
from repro.netsim.queue import QUEUE_KINDS, DropTailQueue
from repro.netsim.simulator import Simulation
from repro.protocols.newreno import NewReno
from repro.scenarios import all_scenarios, get_scenario, simulation_fingerprint


def _newreno(n):
    return [NewReno() for _ in range(n)]


class TestLinkSpecValidation:
    def test_defaults_are_valid(self):
        link = LinkSpec()
        assert link.effective_rate_bps() == 15e6

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="rate_bps"):
            LinkSpec(rate_bps=0)

    def test_loss_rate_range(self):
        with pytest.raises(ValueError, match="loss_rate"):
            LinkSpec(loss_rate=1.0)

    def test_unknown_queue_kind(self):
        with pytest.raises(ValueError, match="queue kind"):
            LinkSpec(queue="mystery")

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            LinkSpec(delay=-0.01)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="at least one delivery instant"):
            LinkSpec(delivery_trace=[])

    def test_decreasing_trace_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            LinkSpec(delivery_trace=[0.0, 0.2, 0.1])

    def test_trace_effective_rate(self):
        link = LinkSpec(delivery_trace=[i * 0.01 for i in range(101)])
        assert link.effective_rate_bps() == pytest.approx(100 * 1500 * 8)

    @pytest.mark.parametrize("kind", QUEUE_KINDS)
    def test_only_droptail_takes_an_unlimited_buffer(self, kind):
        if kind == "droptail":
            assert type(LinkSpec(buffer_packets=None).make_queue()) is DropTailQueue
        else:
            with pytest.raises(ValueError, match="needs a buffer limit"):
                LinkSpec(queue=kind, buffer_packets=None)


class TestPathSpecValidation:
    def test_needs_a_forward_hop(self):
        with pytest.raises(ValueError, match="at least one forward hop"):
            PathSpec(forward=())

    def test_hop_count_must_match_flows(self):
        with pytest.raises(ValueError, match="forward_hops has 1 entries"):
            PathSpec(n_flows=2, forward_hops=((0,),))

    def test_forward_hops_must_be_nonempty(self):
        with pytest.raises(ValueError, match="at least one hop"):
            PathSpec(n_flows=1, forward_hops=((),))

    def test_hop_indices_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            PathSpec(n_flows=1, forward_hops=((3,),))

    def test_hops_must_be_strictly_increasing(self):
        links = (LinkSpec(), LinkSpec())
        with pytest.raises(ValueError, match="strictly increasing"):
            PathSpec(forward=links, n_flows=1, forward_hops=((1, 0),))

    def test_reverse_hops_may_be_empty_per_flow(self):
        spec = PathSpec(
            forward=(LinkSpec(),),
            reverse=(LinkSpec(),),
            n_flows=2,
            reverse_hops=((0,), ()),
        )
        assert spec.reverse_hops_for(0) == (0,)
        assert spec.reverse_hops_for(1) == ()

    def test_default_routes_traverse_whole_chain(self):
        spec = PathSpec(
            forward=(LinkSpec(), LinkSpec(), LinkSpec()),
            reverse=(LinkSpec(),),
            n_flows=2,
        )
        assert spec.forward_hops_for(1) == (0, 1, 2)
        assert spec.reverse_hops_for(0) == (0,)

    def test_per_flow_rtts(self):
        spec = PathSpec(rtt=(0.05, 0.2), n_flows=2)
        assert spec.rtt_for_flow(1) == 0.2
        assert spec.mean_rtt() == pytest.approx(0.125)

    def test_short_rtt_sequence_rejected_at_construction(self):
        with pytest.raises(ValueError, match="1 entries .* 2 flows"):
            PathSpec(rtt=(0.1,), n_flows=2)
        assert PathSpec(rtt=(0.1, 0.2, 0.3), n_flows=2).rtt_for_flow(1) == 0.2

    @pytest.mark.parametrize("rtt", [-0.1, float("inf"), float("nan"), (0.1, -0.1)])
    def test_negative_or_non_finite_rtt_rejected(self, rtt):
        with pytest.raises(ValueError, match="rtt must be finite and non-negative"):
            PathSpec(rtt=rtt, n_flows=2)

    def test_zero_rtt_is_valid(self):
        assert PathSpec(rtt=0.0).rtt_for_flow(0) == 0.0

    def test_bottleneck_rate_respects_flow_route(self):
        spec = PathSpec(
            forward=(LinkSpec(rate_bps=20e6), LinkSpec(rate_bps=5e6)),
            n_flows=2,
            forward_hops=((0, 1), (0,)),
        )
        assert spec.bottleneck_rate_bps(0) == 5e6
        assert spec.bottleneck_rate_bps(1) == 20e6

    def test_with_hops_replaces_forward_hops_only(self):
        spec = PathSpec(
            forward=(LinkSpec(queue="droptail"), LinkSpec(queue="codel")),
            reverse=(LinkSpec(queue="droptail"),),
        )
        swapped = spec.with_hops(queue="sfqcodel", rate_bps=5e6)
        assert all(link.queue == "sfqcodel" and link.rate_bps == 5e6 for link in swapped.forward)
        assert swapped.reverse == spec.reverse
        # The original is untouched (value semantics).
        assert spec.forward[0].queue == "droptail"

    def test_the_dumbbell_is_one_named_forward_hop(self):
        spec = PathSpec.dumbbell(4, rtt=0.05, rate_bps=10e6, queue="codel", buffer_packets=300)
        hop = LinkSpec(name="bottleneck", rate_bps=10e6, queue="codel", buffer_packets=300)
        assert spec == PathSpec(forward=(hop,), rtt=0.05, n_flows=4)
        assert spec.dumbbell_hop() == hop

    def test_pickles(self):
        import pickle

        spec = PathSpec(
            forward=(LinkSpec(), LinkSpec(rate_bps=5e6)),
            reverse=(LinkSpec(rate_bps=1e6),),
            forward_hops=((0, 1), (0,)),
            reverse_hops=((0,), ()),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestOneNetworkClass:
    def test_every_registered_cell_builds_a_path_network(self):
        for cell in all_scenarios():
            sim = cell.build()
            assert type(sim.network) is PathNetwork, cell.name
            assert sim.network.spec == cell.network, cell.name

    def test_lanes_follow_the_shape_not_the_spelling(self, rides_the_lane):
        def lanes(spec):
            return rides_the_lane(Simulation(spec, _newreno(spec.n_flows), duration=1.0))

        dumbbell = PathSpec.dumbbell(rate_bps=4e6, rtt=0.08, n_flows=2)
        hop = LinkSpec(rate_bps=4e6)
        one_hop = PathSpec(forward=(hop,), rtt=0.08, n_flows=2)
        assert lanes(dumbbell) and lanes(one_hop)
        trace = [0.004 * i for i in range(1, 400)]
        for name, spec in {
            "per-flow-rtt": replace(one_hop, rtt=(0.05, 0.08)),
            "per-flow-rtt-dumbbell": replace(dumbbell, rtt=(0.05, 0.08)),
            "trace-driven": dumbbell.with_hops(delivery_trace=trace),
            "trace-driven-hop": replace(one_hop, forward=(replace(hop, delivery_trace=trace),)),
            "delayed-hop": replace(one_hop, forward=(replace(hop, delay=0.01),)),
            "multi-hop": replace(one_hop, forward=(hop, hop)),
            "reverse-hop": replace(one_hop, reverse=(hop,)),
        }.items():
            assert not lanes(spec), name


class TestPathNetwork:
    def _two_hop_spec(self, **overrides):
        params = dict(
            forward=(
                LinkSpec(rate_bps=12e6, buffer_packets=400),
                LinkSpec(rate_bps=8e6, buffer_packets=400),
            ),
            rtt=0.08,
            n_flows=2,
        )
        params.update(overrides)
        return PathSpec(**params)

    def test_multi_hop_throughput_bounded_by_narrowest_hop(self):
        result = Simulation(
            self._two_hop_spec(), _newreno(2), None, duration=3.0, seed=1
        ).run()
        total = sum(result.throughputs_mbps())
        assert 5.0 < total <= 8.2  # 8 Mbps bottleneck governs, not 12

    def test_cross_traffic_only_crosses_its_hops(self):
        # Parking lot: flow 0 traverses both hops, flow 1 only the first.
        spec = self._two_hop_spec(forward_hops=((0, 1), (0,)))
        sim = Simulation(spec, _newreno(2), None, duration=2.0, seed=2)
        result = sim.run()
        first, second = sim.network.forward_links
        # Both flows crossed hop 0; only flow 0's packets crossed hop 1.
        assert first.queue.enqueues > second.queue.enqueues > 0
        assert result.flow_stats[1].bytes_received > 0
        # Hop 1 carried exactly the packets hop 0 delivered for flow 0 (no
        # cross-traffic leakage): its enqueues can never exceed hop 0's.
        assert second.queue.enqueues <= first.queue.enqueues

    def test_per_hop_queue_delay_samples_accumulate(self):
        # Two hops -> roughly two queueing-delay samples per delivered
        # packet (one per traversal); the dumbbell records exactly one.
        sim = Simulation(
            self._two_hop_spec(), _newreno(2), None, duration=2.0, seed=3
        )
        result = sim.run()
        for stats in result.flow_stats:
            assert stats.queue_delay_count >= 2 * stats.packets_received > 0

    def test_hop_delay_attribution_sums_to_flow_totals(self):
        # The per-hop breakdown must partition the flow-total counters:
        # counts exactly, delay sums within float tolerance (the total and
        # the per-hop accumulators fold the same samples in a different
        # order).
        spec = self._two_hop_spec(
            forward=(
                LinkSpec(rate_bps=12e6, buffer_packets=400),
                LinkSpec(rate_bps=8e6, buffer_packets=400),
                LinkSpec(rate_bps=10e6, buffer_packets=400),
            ),
        )
        result = Simulation(spec, _newreno(2), None, duration=2.0, seed=5).run()
        assert len(result.hop_delays) == 3
        for stats in result.flow_stats:
            hops = result.hop_delay_breakdown(stats.flow_id)
            assert all(hop is not None for hop in hops)
            assert sum(hop.count for hop in hops) == stats.queue_delay_count
            assert sum(hop.delay_sum for hop in hops) == pytest.approx(
                stats.queue_delay_sum
            )
            assert max(hop.max_delay for hop in hops) == stats.max_queue_delay

    def test_hop_delay_attribution_names_the_bottleneck(self):
        # 8 Mbps middle hop behind a 12 Mbps entry: the queueing must be
        # attributed to the narrow hop, not smeared across the chain.
        result = Simulation(
            self._two_hop_spec(), _newreno(2), None, duration=2.0, seed=6
        ).run()
        for stats in result.flow_stats:
            per_hop = result.hop_avg_delays_ms(stats.flow_id)
            assert per_hop[1] > per_hop[0]

    def test_hop_delay_attribution_respects_flow_routes(self):
        # Parking-lot cross traffic: flow 1 never crosses hop 1, so it has
        # no accumulator there (None, not a zero-count entry).
        spec = self._two_hop_spec(forward_hops=((0, 1), (0,)))
        result = Simulation(spec, _newreno(2), None, duration=2.0, seed=7).run()
        through, parked = result.hop_delay_breakdown(0), result.hop_delay_breakdown(1)
        assert through[0] is not None and through[1] is not None
        assert parked[0] is not None and parked[1] is None
        assert result.hop_avg_delays_ms(1)[1] == 0.0

    def test_dumbbell_results_have_no_hop_breakdown(self):
        result = Simulation(
            PathSpec.dumbbell(n_flows=2), _newreno(2), None, duration=1.0, seed=8
        ).run()
        assert result.hop_delays == []
        assert result.hop_delay_breakdown(0) == []

    def test_one_forward_hop_keeps_no_ledger_even_with_a_reverse_hop(self):
        # With one forward hop the breakdown *is* the flow total: nothing is
        # registered, so nothing is paid per packet or pickled per result.
        sim = get_scenario("reverse-ack-congestion").build()
        assert len(sim.network.forward_links) == len(sim.network.reverse_links) == 1
        result = sim.run()
        assert result.hop_delays == []
        assert sim.network.forward_links[0].hop_delay_stats == {}
        assert all(stats.queue_delay_count > 0 for stats in result.flow_stats)

    def test_reverse_congestion_inflates_rtt(self):
        # Paced open-loop senders well below the forward bottleneck: forward
        # queues stay empty, so any RTT inflation is pure reverse-path ACK
        # queueing.  200 packets/s of 40-byte ACKs = 64 kbps offered to a
        # 40 kbps reverse hop -> a standing reverse queue.
        from repro.protocols.constant_rate import ConstantRate

        def run(reverse):
            spec = self._two_hop_spec(n_flows=1, reverse=reverse)
            return Simulation(
                spec,
                [ConstantRate(rate_pps=200.0)],
                None,
                duration=2.0,
                seed=4,
            ).run()

        ideal = run(())
        congested = run((LinkSpec(rate_bps=40e3, buffer_packets=400),))

        def mean_rtt(result):
            stats = result.flow_stats[0]
            return stats.rtt_sum / stats.rtt_count

        assert mean_rtt(ideal) == pytest.approx(0.08, rel=0.1)
        assert mean_rtt(congested) > 2 * mean_rtt(ideal)

    def test_reverse_ack_drops_are_survivable(self):
        # A tiny reverse buffer overflows with ACKs; cumulative ACKs and the
        # RTO keep the flows alive, and every dropped ACK balances the
        # sanitizer's census.
        spec = self._two_hop_spec(
            reverse=(LinkSpec(rate_bps=100e3, buffer_packets=4),),
        )
        sim = Simulation(
            spec, _newreno(2), None, duration=2.0, seed=5, debug_invariants=True
        )
        result = sim.run()
        reverse_queue = sim.network.reverse_links[0].queue
        assert reverse_queue.drops > 0, "reverse path never congested"
        assert result.total_bytes_received() > 0
        assert result.queue_drops >= reverse_queue.drops

    def test_mixed_ideal_and_congested_reverse_routes(self):
        spec = self._two_hop_spec(
            reverse=(LinkSpec(rate_bps=200e3, buffer_packets=100),),
            reverse_hops=((0,), ()),
        )
        sim = Simulation(spec, _newreno(2), None, duration=2.0, seed=7)
        result = sim.run()
        s0, s1 = result.flow_stats
        assert s0.rtt_count > 0 and s1.rtt_count > 0
        # Flow 0's ACKs queue behind the 200 kbps hop; flow 1 returns ideal.
        assert s0.rtt_sum / s0.rtt_count > s1.rtt_sum / s1.rtt_count

    def test_per_hop_loss_gates_draw_independent_rngs(self):
        spec = self._two_hop_spec(
            forward=(
                LinkSpec(rate_bps=12e6, buffer_packets=400, loss_rate=0.02),
                LinkSpec(rate_bps=8e6, buffer_packets=400),
            ),
        )
        sim = Simulation(spec, _newreno(2), None, duration=2.0, seed=8)
        sim.run()
        assert sim.network.forward_losses[0] > 0
        assert sim.network.forward_losses[1] == 0
        assert sim.network.link_losses == sim.network.forward_losses[0]

    def test_same_seed_reproduces_bit_identically(self):
        spec = self._two_hop_spec(
            reverse=(LinkSpec(rate_bps=200e3, buffer_packets=50),),
        )

        def run():
            return simulation_fingerprint(
                Simulation(spec, _newreno(2), None, duration=2.0, seed=9).run()
            )

        assert run() == run()

    def test_attach_flow_rejects_duplicates(self):
        scheduler = EventScheduler()
        network = PathNetwork(scheduler, PathSpec(n_flows=1), rng=random.Random(0))
        sim = Simulation(PathSpec(n_flows=1), _newreno(1), None, duration=0.1)
        with pytest.raises(ValueError, match="already attached"):
            sim.network.attach_flow(0, sim.senders[0], sim.receivers[0])
        assert network.flows == {}
