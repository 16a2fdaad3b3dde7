"""Lanes vs heap: lane rule, parity, late-bound hooks.

Three contracts:

* **Lanes** — a :class:`Simulation` uses the scheduler's two constant-delay
  lanes on a constant-rate dumbbell whose flows share one RTT and leaves
  them empty on everything else; the heap-only reference (the ``heap_only``
  fixture, ``_lanes = False``) runs the same closures with both lanes empty.
* **Parity** — lane and heap runs of the same spec are bit-identical (the
  full registry sweep lives in ``test_scenario_matrix.py``; here the shapes
  no registered cell reaches).
* **Late binding** — ``link.connect(...)`` and ``delay_observer`` assigned
  after the build are honoured by a hop (an eager FIFO hop hands itself to
  the event path).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.netsim.events import SimulationError
from repro.netsim.path import LinkSpec, PathSpec
from repro.netsim.simulator import Simulation
from repro.protocols.newreno import NewReno
from repro.scenarios import all_scenarios, simulation_fingerprint
from tools import profile_hotpath

#: The two-lane shape: a constant-rate dumbbell, one RTT for every flow.
FLAT_SPEC = PathSpec.dumbbell(
    rate_bps=4e6, rtt=0.08, n_flows=2, queue="droptail", buffer_packets=100
)

#: A multi-hop path topology (on the heap).
PATH_SPEC = PathSpec(
    forward=(
        LinkSpec(rate_bps=4e6, delay=0.02),
        LinkSpec(rate_bps=3e6, delay=0.02),
    ),
    rtt=0.08,
    n_flows=2,
)

TRACE = [0.004 * i for i in range(1, 600)]


def _build(spec, sim_class=Simulation, seed=7, duration=2.0, **kwargs):
    return sim_class(
        spec, [NewReno() for _ in range(spec.n_flows)], duration=duration, seed=seed, **kwargs,
    )


def _fingerprint(spec, sim_class, **kwargs):
    return simulation_fingerprint(_build(spec, sim_class, **kwargs).run())


# ---------------------------------------------------------------------------
# The lane rule
# ---------------------------------------------------------------------------
class TestResolution:
    def test_auto_rides_the_lanes_on_a_dumbbell(self, rides_lanes):
        assert rides_lanes(_build(FLAT_SPEC))

    def test_auto_stays_on_the_heap_for_a_path(self, rides_lanes):
        assert not rides_lanes(_build(PATH_SPEC))

    def test_auto_stays_on_the_heap_for_a_delivery_trace(self, rides_lanes):
        assert not rides_lanes(_build(FLAT_SPEC.with_hops(delivery_trace=TRACE)))

    def test_per_flow_rtts_select_the_heap_and_equal_ones_the_lanes(self, rides_lanes):
        assert not rides_lanes(_build(replace(FLAT_SPEC, rtt=(0.05, 0.08))))
        assert rides_lanes(_build(replace(FLAT_SPEC, rtt=(0.08, 0.08))))

    def test_generic_never_rides_the_lanes(self, rides_lanes, heap_only):
        for spec in (FLAT_SPEC, PATH_SPEC):
            assert not rides_lanes(_build(spec, heap_only))

    def test_every_registry_cell_is_fused_under_auto(self, heap_only):
        # One engine: lanes or not, every flow's ACK and data sinks are the
        # closures its sender and receiver built when wired.
        for cell in all_scenarios():
            for sim in (cell.build(), heap_only.of(cell)):
                sinks = {sender.on_ack.__qualname__ for sender in sim.senders}
                sinks |= {receiver.on_packet.__qualname__ for receiver in sim.receivers}
                assert sinks == {
                    "Sender.connect.<locals>.ack_and_send",
                    "Receiver.connect.<locals>.on_packet",
                }, (cell.name, type(sim).__name__)

    def test_a_lane_with_the_serialization_delay_equal_to_the_one_way_delay(self, heap_only):
        # 1500 B at 12 Mbps serializes in 1 ms, the one-way delay of a 2 ms
        # RTT: both lanes carry the same delay and still merge in order.
        spec = replace(FLAT_SPEC.with_hops(rate_bps=12e6), rtt=0.002)
        assert _fingerprint(spec, Simulation) == _fingerprint(spec, heap_only)


# ---------------------------------------------------------------------------
# Parity on shapes the golden cells do not reach
# ---------------------------------------------------------------------------
PARITY_SPECS = {
    "lossy-forward-and-reverse-hop": PathSpec(
        forward=(
            LinkSpec(rate_bps=6e6, buffer_packets=60),
            LinkSpec(rate_bps=4e6, buffer_packets=40, loss_rate=0.02),
        ),
        reverse=(LinkSpec(rate_bps=400e3, buffer_packets=50, loss_rate=0.02),),
        rtt=0.06,
        n_flows=3,
    ),
    "parking-lot-mixed-reverse": PathSpec(
        forward=(
            LinkSpec(rate_bps=6e6, buffer_packets=50),
            LinkSpec(rate_bps=4e6, delay=0.003, buffer_packets=40, queue="codel"),
        ),
        reverse=(
            LinkSpec(rate_bps=300e3, buffer_packets=30),
            LinkSpec(rate_bps=500e3, delay=0.002, buffer_packets=30, queue="sfqcodel"),
        ),
        rtt=(0.06, 0.04, 0.05, 0.03),
        n_flows=4,
        forward_hops=((0, 1), (0,), (1,), (0, 1)),
        # Flow 0 returns over both reverse hops, flow 1 over the second,
        # flows 2 and 3 over an ideal reverse path.
        reverse_hops=((0, 1), (1,), (), ()),
    ),
    "hop-delays-everywhere": PathSpec(
        forward=(
            LinkSpec(rate_bps=8e6, delay=0.004, buffer_packets=60),
            LinkSpec(rate_bps=5e6, delay=0.007, buffer_packets=40, queue="red"),
        ),
        reverse=(LinkSpec(rate_bps=600e3, delay=0.005, buffer_packets=40),),
        rtt=0.05,
        n_flows=2,
    ),
    "trace-driven-middle-hop": PathSpec(
        forward=(
            LinkSpec(rate_bps=10e6, delay=0.002, buffer_packets=80),
            LinkSpec(delivery_trace=TRACE, buffer_packets=80),
            LinkSpec(rate_bps=8e6, buffer_packets=80),
        ),
        rtt=0.05,
        n_flows=2,
    ),
    "trace-driven-dumbbell-lossy": PathSpec.dumbbell(
        delivery_trace=TRACE, rtt=0.05, n_flows=2, loss_rate=0.02
    ),
}


class TestParity:
    def test_fused_matches_generic_on_dumbbell(self, heap_only):
        assert _fingerprint(FLAT_SPEC, Simulation) == _fingerprint(FLAT_SPEC, heap_only)

    def test_fused_parity_with_ecn_marking_queue(self, heap_only):
        # AQM cells exercise the closures' enqueue/dequeue calls (no inlined
        # DropTail).
        spec = FLAT_SPEC.with_hops(queue="codel")
        assert _fingerprint(spec, Simulation) == _fingerprint(spec, heap_only)

    @pytest.mark.parametrize("shape", list(PARITY_SPECS))
    def test_fused_matches_generic(self, shape, heap_only):
        spec = PARITY_SPECS[shape]
        generic = _build(spec, heap_only).run()
        assert generic.total_bytes_received() > 0
        assert _fingerprint(spec, Simulation) == simulation_fingerprint(generic)

    @pytest.mark.parametrize("options", [{"debug_invariants": True}], ids=["debug-invariants"])
    @pytest.mark.parametrize("shape", ["parking-lot-mixed-reverse", "hop-delays-everywhere"])
    def test_fused_path_parity_under_build_options(self, shape, options, heap_only):
        spec = PARITY_SPECS[shape]
        assert _fingerprint(spec, Simulation, **options) == _fingerprint(spec, heap_only)


# ---------------------------------------------------------------------------
# Hooks bound after the build reach a hop
# ---------------------------------------------------------------------------
def _hop(sim):
    """The first forward hop."""
    return sim.network.forward_links[0]


class TestLateBoundHooks:
    @pytest.mark.parametrize("spec", [FLAT_SPEC, PATH_SPEC], ids=["lanes", "heap"])
    def test_connect_after_build_fires_and_keeps_parity(self, spec, heap_only, event_path):
        def run(sim_class):
            sim = _build(spec, sim_class)
            link = _hop(sim)
            original = link.deliver
            seen = []

            def spy(packet):
                seen.append((sim.scheduler.now, packet.flow_id, packet.seq))
                original(packet)

            link.connect(spy)
            return seen, simulation_fingerprint(sim.run())

        fused_seen, fused = run(Simulation)
        generic_seen, generic = run(heap_only)
        assert len(fused_seen) > 100
        assert fused_seen == generic_seen
        # A spy at the far end puts an eager hop on the event path.
        assert fused == generic == _fingerprint(spec, event_path)

    @pytest.mark.parametrize("spec", [FLAT_SPEC, PATH_SPEC], ids=["lanes", "heap"])
    def test_delay_observer_after_build_fires(self, spec, heap_only):
        def run(sim_class):
            sim = _build(spec, sim_class)
            delays = []
            _hop(sim).delay_observer = lambda packet, delay: delays.append(delay)
            sim.run()
            return delays

        fused = run(Simulation)
        assert len(fused) > 100
        assert fused == run(heap_only)

    @pytest.mark.parametrize("hook", ["connect", "delay_observer"])
    def test_a_hook_bound_after_an_eager_hops_first_packet_is_refused(self, hook):
        # The eager hop has served packets by arithmetic; the event path
        # cannot take over its backlog.
        sim = _build(FLAT_SPEC)
        for sender in sim.senders:
            sender.start()
        sim.scheduler.run_until(0.2)
        if hook == "connect":
            _hop(sim).connect(lambda packet: None)
        else:
            _hop(sim).delay_observer = lambda packet, delay: None
        with pytest.raises(SimulationError, match="no eager route"):
            sim.scheduler.run_until(0.4)


# ---------------------------------------------------------------------------
# tools/profile_hotpath.py: the lanes-vs-heap timing the bench CI job runs
# ---------------------------------------------------------------------------
class TestProfileTool:
    def test_compare_kernels_prints_both_rates(self, capsys):
        profile_hotpath.main(["--compare-kernels", "--reps", "1", "bench-newreno-droptail"])
        [line] = capsys.readouterr().out.splitlines()
        assert line.startswith("bench-newreno-droptail: ")
        assert "| heap " in line and "| lanes " in line and "ev/s" in line
        assert "lanes speedup" in line

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_compare_kernels_rejects_fewer_than_one_rep(self, capsys, reps):
        with pytest.raises(SystemExit) as exit_info:
            profile_hotpath.main(["--compare-kernels", "--reps", reps, "bench-newreno-droptail"])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_the_flat_spelling_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            profile_hotpath.main(["--kernel", "flat", "bench-newreno-droptail"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err
