"""The built-in scenario matrix: every paper figure plus beyond-paper cells.

Each cell's ``(duration, seed)`` is its *canonical* identity — what the
committed golden fingerprint (``tests/golden/fingerprints.json``) pins and
what ``tests/test_scenario_matrix.py`` replays.  Durations are deliberately
short (2-4 simulated seconds): the matrix must run as a test suite, and the
bit-exact determinism contract is duration-independent.  Consumers that need
paper-scale runs (the figure harnesses, the events/sec benchmark) resolve the
same cells and override duration/seed/workload via
:meth:`~repro.scenarios.spec.ScenarioSpec.override` or ``build(duration=...)``.

Topology tags and their tier-1 smoke representative (``smoke=True`` — exactly
one per topology, asserted by the matrix suite):

==============  =======================  ===================================
Topology        Smoke cell               Covers
==============  =======================  ===================================
``dumbbell``    ``fig4-dumbbell8``       single-bottleneck tail-drop (§5.2)
``cellular``    ``fig7-lte4``            trace-driven LTE downlink (§5.3)
``rtt``         ``fig10-rtt-fairness``   per-flow RTT asymmetry (§5.4)
``datacenter``  ``datacenter-dctcp``     high-rate/low-RTT incast-ish (§5.5)
``path``        ``parking-lot-2bn``      multi-bottleneck / reverse-path cells
``aqm``         ``bbr-dumbbell-droptail``  BBR vs. tail-drop / AQM gateways
``bench``       ``bench-newreno-droptail``  events/sec benchmark cases
==============  =======================  ===================================

The ``path`` cells probe the paper's open question — generalization to
networks the schemes were not designed for — on topologies the paper never
evaluates: parking-lot chains with cross traffic, multi-hop mixed-AQM paths,
congested/ACK-dropping reverse paths, and a multi-hop cellular tail link.
"""

from __future__ import annotations

from repro.netsim.path import LinkSpec, PathSpec
from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import ProtocolSpec, ScenarioSpec
from repro.traces import TraceSpec
from repro.traffic.flowsize import icsi_flow_length_distribution
from repro.traffic.incast import IncastWorkload
from repro.traffic.onoff import (
    ByteFlowWorkload,
    FixedOnPeriodWorkload,
    TimedFlowWorkload,
)

#: Per-flow round-trip times of the Figure 10 scenario (seconds).
FIGURE10_RTTS = (0.050, 0.100, 0.150, 0.200)

#: Per-flow RTTs of the beyond-paper asymmetric dumbbell (a 10× RTT spread,
#: wider than Figure 10's 4×).
ASYM_RTTS = (0.030, 0.075, 0.150, 0.300)


def _paper_onoff() -> ByteFlowWorkload:
    """The paper's most common workload: 100 kB flows, 0.5 s mean off time."""
    return ByteFlowWorkload.exponential(mean_flow_bytes=100e3, mean_off_seconds=0.5)


def _lte_dumbbell(n_flows: int, kind: str, seed: int, **hop: float) -> PathSpec:
    """A 50 ms dumbbell whose bottleneck replays a 4 s LTE trace (its rate is nominal)."""
    return PathSpec.dumbbell(n_flows, rtt=0.050, delivery_trace=TraceSpec(kind, 4.0, seed), **hop)


def _icsi_onoff(mean_off_seconds: float = 0.2) -> ByteFlowWorkload:
    """Heavy-tailed ICSI flow lengths (Figure 3), truncated at 20 MB."""
    return ByteFlowWorkload(
        flow_size=icsi_flow_length_distribution(maximum_bytes=20e6),
        mean_off_seconds=mean_off_seconds,
    )


# ---------------------------------------------------------------------------
# Paper-figure cells
# ---------------------------------------------------------------------------
register_scenario(
    ScenarioSpec(
        name="fig4-dumbbell8",
        description="Figure 4 dumbbell: 8 senders, exponential 100 kB flows over DropTail",
        topology="dumbbell",
        network=PathSpec.dumbbell(8),
        protocols=(ProtocolSpec("newreno"),),
        workloads=(_paper_onoff(),),
        duration=3.0,
        seed=42,
        smoke=True,
    )
)

register_scenario(
    ScenarioSpec(
        name="fig5-dumbbell12",
        description="Figure 5 dumbbell: 12 senders, heavy-tailed ICSI flow lengths",
        topology="dumbbell",
        network=PathSpec.dumbbell(12),
        protocols=(ProtocolSpec("cubic"),),
        workloads=(_icsi_onoff(),),
        duration=3.0,
        seed=43,
    )
)

register_scenario(
    ScenarioSpec(
        name="fig6-convergence",
        description="Figure 6: RemyCC flow with a competitor departing mid-run",
        topology="dumbbell",
        network=PathSpec.dumbbell(2),
        protocols=(ProtocolSpec("remy", tree="delta1"),),
        workloads=(
            FixedOnPeriodWorkload(start=0.0, duration=3.0),  # observed flow
            FixedOnPeriodWorkload(start=0.0, duration=1.5),  # departing competitor
        ),
        duration=3.0,
        seed=66,
    )
)

register_scenario(
    ScenarioSpec(
        name="fig7-lte4",
        description="Figure 7: Verizon LTE downlink trace, 4 senders over DropTail",
        topology="cellular",
        network=_lte_dumbbell(4, "verizon", seed=1),
        protocols=(ProtocolSpec("newreno"),),
        workloads=(_paper_onoff(),),
        duration=4.0,
        seed=71,
        smoke=True,
    )
)

register_scenario(
    ScenarioSpec(
        name="fig8-lte8",
        description="Figure 8: Verizon LTE downlink trace, 8 senders",
        topology="cellular",
        network=_lte_dumbbell(8, "verizon", seed=1),
        protocols=(ProtocolSpec("cubic"),),
        workloads=(_paper_onoff(),),
        duration=4.0,
        seed=72,
    )
)

register_scenario(
    ScenarioSpec(
        name="fig9-att4",
        description="Figure 9: AT&T LTE downlink trace (slower, choppier), 4 senders",
        topology="cellular",
        network=_lte_dumbbell(4, "att", seed=2),
        protocols=(ProtocolSpec("vegas"),),
        workloads=(_paper_onoff(),),
        duration=4.0,
        seed=73,
    )
)

register_scenario(
    ScenarioSpec(
        name="fig10-rtt-fairness",
        description="Figure 10: four RTTs (50-200 ms) sharing Cubic-over-sfqCoDel",
        topology="rtt",
        network=PathSpec.dumbbell(
            rate_bps=10e6,
            rtt=FIGURE10_RTTS,
            n_flows=len(FIGURE10_RTTS),
            queue="sfqcodel",
            buffer_packets=1000,
        ),
        protocols=(ProtocolSpec("cubic"),),
        workloads=(_icsi_onoff(),),
        duration=3.0,
        seed=100,
        smoke=True,
    )
)

register_scenario(
    ScenarioSpec(
        name="fig11-prior-1x",
        description="Figure 11: exact-prior RemyCC (1x table) at its 15 Mbps design point",
        topology="dumbbell",
        network=PathSpec.dumbbell(2),
        protocols=(ProtocolSpec("remy", tree="1x"),),
        workloads=(
            TimedFlowWorkload.exponential(
                mean_on_seconds=5.0, mean_off_seconds=5.0, start_on=True
            ),
            TimedFlowWorkload.exponential(
                mean_on_seconds=5.0, mean_off_seconds=5.0, start_on=False
            ),
        ),
        duration=3.0,
        seed=110,
    )
)

register_scenario(
    ScenarioSpec(
        name="datacenter-dctcp",
        description="§5.5 datacenter at 1/32 scale: DCTCP over an ECN-marking gateway",
        topology="datacenter",
        network=PathSpec.dumbbell(
            rate_bps=10e9 / 32,
            rtt=0.004,
            n_flows=2,
            queue="red-dctcp",
            buffer_packets=1000,
        ),
        protocols=(ProtocolSpec("dctcp"),),
        workloads=(ByteFlowWorkload.exponential(mean_flow_bytes=20e6 / 32, mean_off_seconds=0.1),),
        duration=2.0,
        seed=5,
        smoke=True,
    )
)

register_scenario(
    ScenarioSpec(
        name="competing-remy-cubic",
        description="§5.6 incremental deployment: coexistence RemyCC sharing with Cubic",
        topology="dumbbell",
        network=PathSpec.dumbbell(2),
        protocols=(
            ProtocolSpec("remy", tree="coexist"),
            ProtocolSpec("cubic"),
        ),
        workloads=(_paper_onoff(),),
        duration=3.0,
        seed=61,
    )
)


register_scenario(
    ScenarioSpec(
        name="xcp-router",
        description="XCP endpoints over the explicit-feedback XCP router (§5 baseline)",
        topology="dumbbell",
        network=PathSpec.dumbbell(
            rate_bps=10e6,
            rtt=0.05,
            n_flows=4,
            queue="xcp",
            buffer_packets=120,
        ),
        protocols=(ProtocolSpec("xcp"),),
        duration=3.0,
        seed=7,
    )
)


# ---------------------------------------------------------------------------
# Beyond-paper cells (coverage growth)
# ---------------------------------------------------------------------------
register_scenario(
    ScenarioSpec(
        name="dumbbell-asym-rtt",
        description="Asymmetric-RTT dumbbell: 10x RTT spread (30-300 ms) over DropTail",
        topology="rtt",
        network=PathSpec.dumbbell(len(ASYM_RTTS), rtt=ASYM_RTTS),
        protocols=(ProtocolSpec("newreno"),),
        workloads=(ByteFlowWorkload.exponential(mean_flow_bytes=100e3, mean_off_seconds=0.3),),
        duration=3.0,
        seed=201,
    )
)

register_scenario(
    ScenarioSpec(
        name="bursty-onoff-codel",
        description="Bursty on/off sources (40 kB flows, 50 ms off) over single-queue CoDel",
        topology="dumbbell",
        network=PathSpec.dumbbell(
            rate_bps=12e6,
            rtt=0.060,
            n_flows=6,
            queue="codel",
            buffer_packets=300,
        ),
        protocols=(ProtocolSpec("newreno"),),
        workloads=(ByteFlowWorkload.exponential(mean_flow_bytes=40e3, mean_off_seconds=0.05),),
        duration=3.0,
        seed=202,
    )
)

register_scenario(
    ScenarioSpec(
        name="incast-sfqcodel",
        description="Datacenter incast (synchronised arrivals) over a shallow sfqCoDel gateway",
        topology="datacenter",
        network=PathSpec.dumbbell(
            rate_bps=200e6,
            rtt=0.002,
            n_flows=8,
            queue="sfqcodel",
            buffer_packets=96,
        ),
        protocols=(ProtocolSpec("cubic"),),
        workloads=(
            IncastWorkload.exponential(mean_flow_bytes=60e3, epoch_seconds=0.05, jitter_seconds=0.002),
        ),
        duration=2.0,
        seed=203,
    )
)

register_scenario(
    ScenarioSpec(
        name="cellular-lossy",
        description="Lossy-link cellular: Verizon trace with 1% stochastic forward loss",
        topology="cellular",
        network=_lte_dumbbell(4, "verizon", seed=9, loss_rate=0.01),
        protocols=(ProtocolSpec("newreno"),),
        workloads=(_paper_onoff(),),
        duration=4.0,
        seed=204,
    )
)


# ---------------------------------------------------------------------------
# Multi-bottleneck / reverse-path cells (the `path` topology)
# ---------------------------------------------------------------------------
register_scenario(
    ScenarioSpec(
        name="parking-lot-2bn",
        description=(
            "Two-bottleneck parking lot: two through flows cross both hops, "
            "one cross-traffic flow per hop"
        ),
        topology="path",
        network=PathSpec(
            forward=(
                LinkSpec(rate_bps=8e6, delay=0.005, buffer_packets=150),
                LinkSpec(rate_bps=6e6, delay=0.005, buffer_packets=150),
            ),
            rtt=(0.100, 0.100, 0.050, 0.050),
            n_flows=4,
            # Flows 0-1 traverse the whole lot; flow 2 parks on hop 0 and
            # flow 3 on hop 1 (the classic parking-lot cross traffic).
            forward_hops=((0, 1), (0, 1), (0,), (1,)),
        ),
        protocols=(ProtocolSpec("newreno"),),
        workloads=(ByteFlowWorkload.exponential(mean_flow_bytes=100e3, mean_off_seconds=0.2),),
        duration=2.5,
        seed=301,
        smoke=True,
    )
)

register_scenario(
    ScenarioSpec(
        name="chain-3hop",
        description=(
            "Three-hop chain with the bottleneck in the middle "
            "(14 -> 8 -> 12 Mbps), Cubic through all hops"
        ),
        topology="path",
        network=PathSpec(
            forward=(
                LinkSpec(rate_bps=14e6, delay=0.005, buffer_packets=300),
                LinkSpec(rate_bps=5e6, delay=0.005, buffer_packets=120),
                LinkSpec(rate_bps=12e6, delay=0.005, buffer_packets=300),
            ),
            rtt=0.080,
            n_flows=4,
        ),
        protocols=(ProtocolSpec("cubic"),),
        workloads=(ByteFlowWorkload.exponential(mean_flow_bytes=150e3, mean_off_seconds=0.2),),
        duration=2.5,
        seed=302,
    )
)

register_scenario(
    ScenarioSpec(
        name="reverse-ack-congestion",
        description=(
            "Congested reverse path: always-on NewReno data over 10 Mbps, "
            "ACK stream squeezed through a 200 kbps / 60-packet return hop"
        ),
        topology="path",
        network=PathSpec(
            forward=(LinkSpec(rate_bps=10e6, buffer_packets=400),),
            reverse=(LinkSpec(rate_bps=200e3, buffer_packets=60),),
            rtt=0.060,
            n_flows=4,
        ),
        protocols=(ProtocolSpec("newreno"),),
        duration=2.5,
        seed=303,
    )
)

register_scenario(
    ScenarioSpec(
        name="multihop-mixed-aqm",
        description=(
            "Mixed-AQM chain: CoDel -> RED -> DropTail hops with on/off "
            "traffic (idle periods exercise RED's time-based idle decay)"
        ),
        topology="path",
        network=PathSpec(
            forward=(
                LinkSpec(rate_bps=10e6, delay=0.004, buffer_packets=200, queue="codel"),
                LinkSpec(
                    rate_bps=7e6,
                    delay=0.004,
                    buffer_packets=150,
                    queue="red",
                    red_min_thresh=10.0,
                    red_max_thresh=40.0,
                ),
                LinkSpec(rate_bps=12e6, delay=0.004, buffer_packets=300),
            ),
            rtt=0.060,
            n_flows=4,
        ),
        protocols=(ProtocolSpec("newreno"),),
        workloads=(ByteFlowWorkload.exponential(mean_flow_bytes=200e3, mean_off_seconds=0.3),),
        duration=2.5,
        seed=304,
    )
)

register_scenario(
    ScenarioSpec(
        name="cellular-multihop-tail",
        description=(
            "Multi-hop cellular: a 20 Mbps wired hop feeding a Verizon LTE "
            "trace-driven tail link"
        ),
        topology="path",
        network=PathSpec(
            forward=(
                LinkSpec(rate_bps=20e6, delay=0.010, buffer_packets=200),
                LinkSpec(buffer_packets=1000, delivery_trace=TraceSpec("verizon", 3.0, seed=11)),
            ),
            rtt=0.050,
            n_flows=4,
        ),
        protocols=(ProtocolSpec("newreno"),),
        workloads=(_paper_onoff(),),
        duration=3.0,
        seed=305,
    )
)

register_scenario(
    ScenarioSpec(
        name="reverse-sfq-ack",
        description=(
            "sfqCoDel reverse gateway: 40-byte ACK buckets under DRR on a "
            "300 kbps return hop (mixed-packet-size byte fairness)"
        ),
        topology="path",
        network=PathSpec(
            forward=(LinkSpec(rate_bps=10e6, buffer_packets=400),),
            reverse=(LinkSpec(rate_bps=300e3, buffer_packets=200, queue="sfqcodel"),),
            rtt=0.060,
            n_flows=4,
        ),
        protocols=(ProtocolSpec("newreno"),),
        duration=2.5,
        seed=306,
    )
)

register_scenario(
    ScenarioSpec(
        name="reverse-split-ack",
        description=(
            "Disjoint reverse ACK routes: four NewReno flows share one "
            "10 Mbps forward bottleneck but return their ACKs over two "
            "disjoint reverse hops — flows 0/1 through an overloaded "
            "100 kbps link that drops ACKs, flows 2/3 through a roomier "
            "500 kbps link (per-flow reverse_hops routing)"
        ),
        topology="path",
        network=PathSpec(
            forward=(LinkSpec(rate_bps=10e6, buffer_packets=400),),
            reverse=(
                LinkSpec(rate_bps=100e3, buffer_packets=25),
                LinkSpec(rate_bps=500e3, buffer_packets=100),
            ),
            reverse_hops=((0,), (0,), (1,), (1,)),
            rtt=0.060,
            n_flows=4,
        ),
        protocols=(ProtocolSpec("newreno"),),
        duration=2.5,
        seed=307,
    )
)


# ---------------------------------------------------------------------------
# BBR vs. AQM cells (the `aqm` topology)
#
# BBR's model-based rate control meets three queue regimes: the deep
# tail-drop buffer it was designed to avoid filling, a CoDel gateway whose
# sojourn-time drops punish any standing queue BBR's cruise phase leaves,
# and per-flow sfqCoDel on a multi-hop path (does flow isolation mask
# BBR's PROBE_BW overshoot from its neighbours?).
# ---------------------------------------------------------------------------
register_scenario(
    ScenarioSpec(
        name="bbr-dumbbell-droptail",
        description="BBR on the §5.1 dumbbell: 4 senders, deep tail-drop buffer",
        topology="aqm",
        network=PathSpec.dumbbell(4),
        protocols=(ProtocolSpec("bbr"),),
        workloads=(_paper_onoff(),),
        duration=3.0,
        seed=401,
        smoke=True,
    )
)

register_scenario(
    ScenarioSpec(
        name="bbr-dumbbell-codel",
        description="BBR over a single-queue CoDel gateway: sojourn drops vs. the model",
        topology="aqm",
        network=PathSpec.dumbbell(
            rate_bps=12e6,
            rtt=0.080,
            n_flows=4,
            queue="codel",
            buffer_packets=300,
        ),
        protocols=(ProtocolSpec("bbr"),),
        workloads=(ByteFlowWorkload.exponential(mean_flow_bytes=150e3, mean_off_seconds=0.2),),
        duration=3.0,
        seed=402,
    )
)

register_scenario(
    ScenarioSpec(
        name="bbr-path-sfqcodel",
        description=(
            "BBR through a two-bottleneck parking lot with per-flow "
            "sfqCoDel gateways and cross traffic on each hop"
        ),
        topology="aqm",
        network=PathSpec(
            forward=(
                LinkSpec(rate_bps=8e6, delay=0.005, buffer_packets=200, queue="sfqcodel"),
                LinkSpec(rate_bps=6e6, delay=0.005, buffer_packets=200, queue="sfqcodel"),
            ),
            rtt=(0.100, 0.100, 0.050, 0.050),
            n_flows=4,
            forward_hops=((0, 1), (0, 1), (0,), (1,)),
        ),
        protocols=(ProtocolSpec("bbr"),),
        workloads=(ByteFlowWorkload.exponential(mean_flow_bytes=150e3, mean_off_seconds=0.2),),
        duration=3.0,
        seed=403,
    )
)


# ---------------------------------------------------------------------------
# Benchmark cells (bench/'s sim-long workload runs these for seconds of wall)
# ---------------------------------------------------------------------------


def _bench_network(queue: str) -> PathSpec:
    return PathSpec.dumbbell(
        rate_bps=10e6, rtt=0.05, n_flows=4, queue=queue, buffer_packets=500
    )


for _queue in ("droptail", "codel", "sfqcodel", "red", "xcp"):
    register_scenario(
        ScenarioSpec(
            name=f"bench-newreno-{_queue}",
            description=f"events/sec benchmark: 4 always-on NewReno senders over {_queue}",
            topology="bench",
            network=_bench_network(_queue),
            # NewReno even over the XCP router: the bench measures the queue
            # discipline's overhead under an unchanged end-to-end sender.
            protocols=(ProtocolSpec("newreno"),),
            duration=2.0,
            seed=0,
            smoke=_queue == "droptail",
        )
    )

register_scenario(
    ScenarioSpec(
        name="bench-newreno-twohop",
        description=(
            "events/sec benchmark: 4 always-on NewReno senders over a "
            "two-hop path with a congestible reverse hop (multi-hop "
            "dispatch + reverse-path ACK routing cost)"
        ),
        topology="bench",
        network=PathSpec(
            forward=(
                LinkSpec(rate_bps=10e6, buffer_packets=500),
                LinkSpec(rate_bps=8e6, buffer_packets=500),
            ),
            reverse=(LinkSpec(rate_bps=1e6, buffer_packets=500),),
            rtt=0.05,
            n_flows=4,
        ),
        protocols=(ProtocolSpec("newreno"),),
        duration=2.0,
        seed=0,
    )
)

register_scenario(
    ScenarioSpec(
        name="bench-remy-droptail",
        description="events/sec benchmark: 4 always-on RemyCC (delta1) senders, execution mode",
        topology="bench",
        network=_bench_network("droptail"),
        protocols=(ProtocolSpec("remy", tree="delta1"),),
        duration=2.0,
        seed=0,
    )
)

register_scenario(
    ScenarioSpec(
        name="bench-remy-training",
        description="events/sec benchmark: 4 always-on RemyCC (delta1) senders, training mode",
        topology="bench",
        network=_bench_network("droptail"),
        protocols=(ProtocolSpec("remy", tree="delta1", training=True),),
        duration=2.0,
        seed=0,
    )
)
