"""Integration tests for the dumbbell topology and simulation driver."""

import pytest

from repro.netsim.queue import QUEUE_KINDS
from repro.netsim.path import LinkSpec, PathSpec
from repro.netsim.sender import AlwaysOnWorkload
from repro.netsim.simulator import Simulation
from repro.protocols.constant_rate import ConstantRate
from repro.protocols.newreno import NewReno
from repro.traffic.onoff import ByteFlowWorkload


class TestNetworkSpec:
    """The dumbbell's spec, ``PathSpec.dumbbell``."""

    def test_defaults_are_valid(self):
        spec = PathSpec.dumbbell()
        assert spec.rtt_for_flow(0) == 0.150
        assert spec.bandwidth_delay_product_packets() == pytest.approx(187.5)

    def test_bandwidth_delay_product_counts_hop_delays(self):
        # Each flow's narrowest forward hop, times its RTT plus the delays of
        # the hops it crosses in both directions.
        spec = PathSpec(
            forward=(LinkSpec(rate_bps=12e6, delay=0.01), LinkSpec(rate_bps=6e6, delay=0.005)),
            reverse=(LinkSpec(rate_bps=1e6, delay=0.02),),
            rtt=0.1,
            n_flows=2,
            forward_hops=((0, 1), (0,)),
            reverse_hops=((0,), ()),
        )
        assert spec.bandwidth_delay_product_packets(0) == pytest.approx(6e6 * 0.135 / 12000)
        assert spec.bandwidth_delay_product_packets(1) == pytest.approx(12e6 * 0.110 / 12000)

    def test_per_flow_rtts(self):
        spec = PathSpec.dumbbell(rtt=[0.05, 0.1, 0.15, 0.2], n_flows=4)
        assert spec.rtt_for_flow(0) == 0.05
        assert spec.rtt_for_flow(3) == 0.2

    def test_per_flow_rtt_length_mismatch(self):
        # Caught where the spec is built, not when flow 1 is attached.
        with pytest.raises(ValueError, match="1 entries .* 2 flows"):
            PathSpec.dumbbell(rtt=[0.05], n_flows=2)
        # A longer-than-needed sequence stays legal.
        assert PathSpec.dumbbell(rtt=[0.05, 0.1, 0.2], n_flows=2).rtt_for_flow(1) == 0.1

    @pytest.mark.parametrize("rtt", [-0.1, float("inf"), float("nan"), (0.1, -0.1)])
    def test_negative_or_non_finite_rtt_rejected(self, rtt):
        # rtt=-0.1 used to construct, then die inside a callback under the
        # generic kernel ("negative delay") and *run* under the fused one.
        with pytest.raises(ValueError, match="rtt must be finite and non-negative"):
            PathSpec.dumbbell(rtt=rtt, n_flows=2)

    def test_zero_rtt_is_valid(self):
        assert PathSpec.dumbbell(rtt=0.0).rtt_for_flow(0) == 0.0

    @pytest.mark.parametrize("mss_bytes", [0, -1500])
    def test_nonpositive_mss_rejected(self, mss_bytes):
        with pytest.raises(ValueError, match="mss_bytes must be positive"):
            PathSpec.dumbbell(mss_bytes=mss_bytes)

    def test_unknown_queue_kind_rejected(self):
        with pytest.raises(ValueError):
            PathSpec.dumbbell(queue="mystery")

    @pytest.mark.parametrize("kind", QUEUE_KINDS)
    def test_every_queue_kind_instantiates(self, kind):
        spec = PathSpec.dumbbell(queue=kind)
        queue = spec.forward[0].make_queue()
        assert queue is not None

    def test_callable_queue_factory(self):
        from repro.netsim.queue import DropTailQueue

        spec = PathSpec.dumbbell(queue=lambda: DropTailQueue(capacity_packets=7))
        queue = spec.forward[0].make_queue()
        assert queue.capacity_packets == 7

    def test_effective_rate_from_trace(self):
        trace = [i * 0.01 for i in range(101)]  # 100 packets/s
        spec = PathSpec.dumbbell(delivery_trace=trace)
        assert spec.bottleneck_rate_bps() == pytest.approx(100 * 1500 * 8)

    def test_invalid_flow_count(self):
        with pytest.raises(ValueError):
            PathSpec.dumbbell(n_flows=0)

    def test_empty_delivery_trace_rejected_at_construction(self):
        # Used to slip through and crash later with an IndexError inside
        # effective_rate_bps(); now it fails fast with an instructive error.
        with pytest.raises(ValueError, match="at least one delivery instant"):
            PathSpec.dumbbell(delivery_trace=[])

    def test_decreasing_delivery_trace_rejected_at_construction(self):
        # Used to surface only deep inside TraceDrivenLink construction.
        with pytest.raises(ValueError, match="entry 2 .* precedes entry 1"):
            PathSpec.dumbbell(delivery_trace=[0.0, 0.02, 0.01, 0.03])

    def test_single_instant_trace_is_valid(self):
        spec = PathSpec.dumbbell(delivery_trace=[0.5])
        # Zero-span trace: falls back to the nominal rate instead of dividing
        # by zero.
        assert spec.bottleneck_rate_bps() == spec.forward[0].rate_bps

    def test_equal_timestamps_are_allowed(self):
        # Back-to-back delivery opportunities at one instant are legal (LTE
        # traces contain them); only *decreasing* steps are malformed.
        spec = PathSpec.dumbbell(delivery_trace=[0.0, 0.01, 0.01, 0.02])
        assert spec.bottleneck_rate_bps() > 0


class TestForwardPathLoss:
    def _run(self, loss_rate: float, seed: int = 3):
        spec = PathSpec.dumbbell(
            rate_bps=6e6,
            rtt=0.05,
            n_flows=2,
            queue="droptail",
            buffer_packets=200,
            loss_rate=loss_rate,
        )
        sim = Simulation(
            spec,
            [NewReno() for _ in range(2)],
            [AlwaysOnWorkload() for _ in range(2)],
            duration=3.0,
            seed=seed,
        )
        return sim, sim.run()

    def test_loss_rate_validated(self):
        with pytest.raises(ValueError):
            PathSpec.dumbbell(loss_rate=1.0)
        with pytest.raises(ValueError):
            PathSpec.dumbbell(loss_rate=-0.1)

    def test_lossy_link_drops_and_senders_recover(self):
        sim, result = self._run(loss_rate=0.02)
        assert sim.network.link_losses > 0
        assert sum(s.losses_detected for s in result.flow_stats) > 0
        assert all(s.bytes_received > 0 for s in result.flow_stats)

    def test_zero_loss_rate_is_the_exact_lossless_stream(self):
        # loss_rate=0 must not consume any randomness: results are
        # bit-identical to a spec without the field.
        _, lossless = self._run(loss_rate=0.0)
        _, baseline = self._run(loss_rate=0.0)  # determinism sanity
        assert lossless.events_processed == baseline.events_processed
        sim, _ = self._run(loss_rate=0.0)
        assert sim.network.link_losses == 0
        assert sim.network._gates == ([None], [])

    def test_lossy_runs_are_seed_deterministic(self):
        _, a = self._run(loss_rate=0.05, seed=11)
        _, b = self._run(loss_rate=0.05, seed=11)
        assert a.events_processed == b.events_processed
        assert [s.bytes_received for s in a.flow_stats] == [
            s.bytes_received for s in b.flow_stats
        ]


class TestSimulation:
    def test_constant_rate_below_capacity_sees_no_queueing(self):
        # 2 Mbps offered on a 10 Mbps link: no queue should build.
        spec = PathSpec.dumbbell(rate_bps=10e6, rtt=0.1, n_flows=1)
        protocols = [ConstantRate(rate_pps=2e6 / (1500 * 8))]
        result = Simulation(spec, protocols, [AlwaysOnWorkload()], duration=5.0, seed=0).run()
        assert result.flow_stats[0].avg_queue_delay_ms() < 1.0
        assert result.flow_stats[0].throughput_mbps() == pytest.approx(2.0, rel=0.1)

    def test_constant_rate_above_capacity_fills_buffer(self):
        spec = PathSpec.dumbbell(rate_bps=5e6, rtt=0.1, n_flows=1, buffer_packets=100)
        protocols = [ConstantRate(rate_pps=10e6 / (1500 * 8))]
        result = Simulation(spec, protocols, [AlwaysOnWorkload()], duration=5.0, seed=0).run()
        # The link saturates and the tail-drop buffer overflows.
        assert result.flow_stats[0].throughput_mbps() == pytest.approx(5.0, rel=0.15)
        assert result.queue_drops > 0

    def test_single_newreno_flow_achieves_high_utilization(self):
        spec = PathSpec.dumbbell(rate_bps=4e6, rtt=0.1, n_flows=1, buffer_packets=200)
        result = Simulation(spec, [NewReno()], [AlwaysOnWorkload()], duration=20.0, seed=0).run()
        assert result.flow_stats[0].throughput_mbps() > 3.0

    def test_two_flows_share_the_bottleneck(self, small_dumbbell):
        protocols = [NewReno(), NewReno()]
        workloads = [AlwaysOnWorkload(), AlwaysOnWorkload(start_delay=1.0)]
        result = Simulation(small_dumbbell, protocols, workloads, duration=20.0, seed=1).run()
        tputs = result.throughputs_mbps()
        assert sum(tputs) <= 4.0 * 1.05  # cannot exceed the link
        assert min(tputs) > 0.3  # both flows make progress

    def test_reproducibility_with_same_seed(self, small_dumbbell):
        def run(seed):
            protocols = [NewReno(), NewReno()]
            workloads = [
                ByteFlowWorkload.exponential(50e3, 0.2) for _ in range(2)
            ]
            return Simulation(small_dumbbell, protocols, workloads, duration=5.0, seed=seed).run()

        a = run(7)
        b = run(7)
        c = run(8)
        assert a.throughputs_mbps() == b.throughputs_mbps()
        assert a.events_processed == b.events_processed
        assert a.throughputs_mbps() != c.throughputs_mbps()

    def test_protocol_count_must_match_flows(self, small_dumbbell):
        with pytest.raises(ValueError):
            Simulation(small_dumbbell, [NewReno()], None, duration=1.0)

    def test_workload_count_must_match_flows(self, small_dumbbell):
        with pytest.raises(ValueError):
            Simulation(small_dumbbell, [NewReno(), NewReno()], [None], duration=1.0)

    def test_result_summary_helpers(self, small_dumbbell):
        result = Simulation(small_dumbbell, [NewReno(), NewReno()], duration=5.0, seed=0).run()
        assert result.median_throughput_mbps() > 0
        assert result.mean_throughput_mbps() > 0
        assert result.total_bytes_received() > 0
        assert result.median_queue_delay_ms() >= 0

    def test_trace_driven_bottleneck_caps_throughput(self):
        # 200 delivery opportunities per second -> 2.4 Mbps ceiling.
        trace = [i * 0.005 for i in range(1, 2001)]
        spec = PathSpec.dumbbell(delivery_trace=trace, rtt=0.05, n_flows=1)
        result = Simulation(spec, [NewReno()], [AlwaysOnWorkload()], duration=8.0, seed=0).run()
        assert result.flow_stats[0].throughput_mbps() <= 2.4 * 1.05
        assert result.flow_stats[0].throughput_mbps() > 1.0
