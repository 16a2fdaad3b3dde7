"""The pluggable simulation-kernel layer: selection, parity, late-bound hooks.

Three contracts:

* **Resolution** — ``kernel="auto"`` is the fused :class:`FlatKernel` on
  every topology; the *scheduler* under it is chosen from the spec (lanes
  for a constant-rate dumbbell whose flows share one RTT, the plain heap
  for everything else).  ``"generic"`` stays selectable as the parity
  reference.
* **Parity** — fused and generic runs of the same spec are bit-identical
  (the full registry sweep lives in ``test_scenario_matrix.py``; here the
  shapes no registered cell reaches).
* **Late binding** — ``link.connect(...)`` and ``delay_observer`` assigned
  after the build are honoured by a fused hop.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.netsim.events import EventScheduler
from repro.netsim.kernel import (
    KERNEL_NAMES,
    FlatKernel,
    FlatScheduler,
    GenericKernel,
    resolve_kernel,
)
from repro.netsim.network import NetworkSpec
from repro.netsim.path import LinkSpec, PathSpec
from repro.netsim.simulator import Simulation
from repro.protocols.newreno import NewReno
from repro.scenarios import all_scenarios, simulation_fingerprint

#: The two-lane shape: a constant-rate dumbbell, one RTT for every flow.
FLAT_SPEC = NetworkSpec(
    link_rate_bps=4e6, rtt=0.08, n_flows=2, queue="droptail", buffer_packets=100
)

#: A multi-hop path topology (heap scheduler under the fused kernel).
PATH_SPEC = PathSpec(
    forward=(
        LinkSpec(rate_bps=4e6, delay=0.02),
        LinkSpec(rate_bps=3e6, delay=0.02),
    ),
    rtt=0.08,
    n_flows=2,
)

TRACE = [0.004 * i for i in range(1, 600)]


def _build(spec, kernel="auto", seed=7, duration=2.0, **kwargs):
    return Simulation(
        spec, [NewReno() for _ in range(spec.n_flows)], duration=duration,
        seed=seed, kernel=kernel, **kwargs,
    )


def _fingerprint(spec, kernel, **kwargs):
    return simulation_fingerprint(_build(spec, kernel, **kwargs).run())


# ---------------------------------------------------------------------------
# Resolution and scheduler selection
# ---------------------------------------------------------------------------
class TestResolution:
    def test_auto_picks_flat_for_dumbbell(self):
        kernel = resolve_kernel("auto")
        assert isinstance(kernel, FlatKernel)
        assert isinstance(kernel.create_scheduler(FLAT_SPEC), FlatScheduler)

    def test_auto_picks_flat_on_the_heap_for_path(self):
        assert type(resolve_kernel("auto").create_scheduler(PATH_SPEC)) is EventScheduler

    def test_auto_picks_flat_on_the_heap_for_delivery_trace(self):
        traced = replace(FLAT_SPEC, delivery_trace=TRACE)
        assert type(FlatKernel().create_scheduler(traced)) is EventScheduler

    def test_per_flow_rtts_select_the_heap_and_equal_ones_the_lanes(self):
        kernel = FlatKernel()
        mixed = replace(FLAT_SPEC, rtt=(0.05, 0.08))
        assert type(kernel.create_scheduler(mixed)) is EventScheduler
        same = replace(FLAT_SPEC, rtt=(0.08, 0.08))
        assert isinstance(kernel.create_scheduler(same), FlatScheduler)

    def test_explicit_flat_is_accepted_on_every_topology(self):
        assert isinstance(resolve_kernel("flat"), FlatKernel)
        traced = replace(FLAT_SPEC, delivery_trace=TRACE)
        for spec in (FLAT_SPEC, PATH_SPEC, traced):
            assert _build(spec, "flat").kernel_name == "flat"

    def test_explicit_generic_is_always_accepted(self):
        kernel = resolve_kernel("generic")
        assert isinstance(kernel, GenericKernel)
        for spec in (FLAT_SPEC, PATH_SPEC):
            assert type(kernel.create_scheduler(spec)) is EventScheduler

    def test_unknown_kernel_name_lists_the_choices(self):
        with pytest.raises(ValueError) as err:
            resolve_kernel("warp")
        for name in KERNEL_NAMES:
            assert name in str(err.value)

    def test_kernel_instances_pass_through(self):
        kernel = GenericKernel()
        assert resolve_kernel(kernel) is kernel

    def test_simulation_records_resolved_kernel_name(self):
        assert _build(FLAT_SPEC).kernel_name == "flat"
        assert _build(PATH_SPEC).kernel_name == "flat"
        assert _build(PATH_SPEC, "generic").kernel_name == "generic"

    def test_every_registry_cell_resolves_to_the_fused_kernel(self):
        for cell in all_scenarios():
            assert cell.build().kernel_name == "flat", cell.name

    def test_a_lane_with_the_serialization_delay_equal_to_the_one_way_delay(self):
        # 1500 B at 12 Mbps serializes in 1 ms, the one-way delay of a 2 ms
        # RTT: both lanes carry the same delay and still merge in order.
        spec = replace(FLAT_SPEC, link_rate_bps=12e6, rtt=0.002)
        assert _fingerprint(spec, "flat") == _fingerprint(spec, "generic")


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
    "trace-driven-dumbbell-lossy": NetworkSpec(
        delivery_trace=TRACE, rtt=0.05, n_flows=2, loss_rate=0.02
    ),
}


class TestParity:
    def test_flat_matches_generic_on_dumbbell(self):
        generic = _fingerprint(FLAT_SPEC, "generic")
        assert _fingerprint(FLAT_SPEC, "flat") == generic
        assert _fingerprint(FLAT_SPEC, "auto") == generic

    def test_flat_parity_with_ecn_marking_queue(self):
        # AQM cells exercise the generic (non-DropTail) fused path.
        spec = replace(FLAT_SPEC, queue="codel")
        assert _fingerprint(spec, "flat") == _fingerprint(spec, "generic")

    @pytest.mark.parametrize("shape", list(PARITY_SPECS))
    def test_fused_matches_generic(self, shape):
        spec = PARITY_SPECS[shape]
        generic = _build(spec, "generic").run()
        assert generic.total_bytes_received() > 0
        assert _fingerprint(spec, "flat") == simulation_fingerprint(generic)

    @pytest.mark.parametrize(
        "options",
        [{"debug_invariants": True}, {"use_packet_pool": False}],
        ids=["debug-invariants", "no-packet-pool"],
    )
    @pytest.mark.parametrize("shape", ["parking-lot-mixed-reverse", "hop-delays-everywhere"])
    def test_fused_path_parity_under_build_options(self, shape, options):
        spec = PARITY_SPECS[shape]
        assert _fingerprint(spec, "flat", **options) == _fingerprint(spec, "generic")


# ---------------------------------------------------------------------------
# Hooks bound after the build reach a fused hop
# ---------------------------------------------------------------------------
def _hop(sim):
    """The first forward hop."""
    return sim.network.forward_links[0]


class TestLateBoundHooks:
    @pytest.mark.parametrize("spec", [FLAT_SPEC, PATH_SPEC], ids=["lanes", "heap"])
    def test_connect_after_build_fires_and_keeps_parity(self, spec):
        def run(kernel):
            sim = _build(spec, kernel)
            link = _hop(sim)
            original = link.deliver
            seen = []

            def spy(packet):
                seen.append((sim.scheduler.now, packet.flow_id, packet.seq))
                original(packet)

            link.connect(spy)
            return seen, simulation_fingerprint(sim.run())

        fused_seen, fused = run("flat")
        generic_seen, generic = run("generic")
        assert len(fused_seen) > 100
        assert fused_seen == generic_seen
        assert fused == generic == _fingerprint(spec, "generic")

    @pytest.mark.parametrize("spec", [FLAT_SPEC, PATH_SPEC], ids=["lanes", "heap"])
    def test_delay_observer_after_build_fires(self, spec):
        def run(kernel):
            sim = _build(spec, kernel)
            delays = []
            _hop(sim).delay_observer = lambda packet, delay: delays.append(delay)
            sim.run()
            return delays

        fused = run("flat")
        assert len(fused) > 100
        assert fused == run("generic")
