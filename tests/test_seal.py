"""Sealing a drowned bottleneck (README "Performance").

On a ``PathSpec.sealable`` dumbbell the simulator stops simulating sends
that can never be delivered.  The contract is that nothing but the send-side
counters (and the event count) can tell: every receiver-side, link-side and
RTT field of :class:`FlowStats`, every whisker ``use_count`` and sample —
hence every score the design loop computes — is bit-identical to simulating
those sends.

The reference needs no "seal off" switch: a DropTail queue with a
10**9-packet buffer runs the very same FIFO code and never drops, but is not
eligible, so it simulates every send.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import pickle

import pytest

from repro.core.action import Action
from repro.core.config import ConfigRange, ParameterRange
from repro.core.evaluator import Evaluator, EvaluatorSettings
from repro.core.objective import Objective
from repro.core.optimizer import OptimizerSettings, OptimizerState, RemyOptimizer
from repro.core.serialization import save_json_atomic, whisker_tree_to_dict
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.events import EventScheduler
from repro.netsim.link import ConstantRateLink
from repro.netsim.network import NetworkSpec
from repro.netsim.packet import Packet
from repro.netsim.path import LinkSpec, PathSpec
from repro.netsim.queue import InfiniteQueue
from repro.netsim.sender import AlwaysOnWorkload
from repro.netsim.simulator import Simulation, SimulationResult
from repro.netsim.stats import FlowStats
from repro.protocols.constant_rate import ConstantRate
from repro.protocols.remycc import RemyCCProtocol
from repro.runner import ProcessPoolBackend, SerialBackend, SimJob
from repro.scenarios import get_scenario, scenario_names, smoke_scenarios
from repro.traces.cellular import verizon_lte_trace
from repro.traffic.onoff import ByteFlowWorkload, TimedFlowWorkload

FULL_MATRIX = os.environ.get("SCENARIO_MATRIX", "").lower() in {"full", "all", "1"}

#: Counters that stop at the seal (lower bounds on the unsealed run's).
SEND_SIDE = {"packets_sent", "retransmissions", "timeouts", "losses_detected"}
EXACT_FIELDS = [
    f.name for f in dataclasses.fields(FlowStats) if f.name not in SEND_SIDE
]

#: A runaway neighbour of the default action (``m = 1.01``, pacing clamped to
#: its floor): the window grows with every ACK, the unlimited queue swallows
#: all of it, and the unsealed timed run costs ten times the sealed one.
RUNAWAY = Action(window_multiple=1.01, window_increment=2.0, intersend_ms=0.002)
GIANT_BUFFER = 10**9
DURATION = 2.0
#: A seed under which both workload kinds drown the link about half-way.
FLOOD_SEED = 2


def flood_spec(queue: str, **overrides) -> NetworkSpec:
    fields = dict(
        link_rate_bps=10e6,
        rtt=0.1,
        n_flows=3,
        queue=queue,
        buffer_packets=GIANT_BUFFER if queue == "droptail" else 1000,
    )
    fields.update(overrides)
    return NetworkSpec(**fields)


def flood_workloads(kind: str, n_flows: int):
    if kind == "timed":
        return [
            TimedFlowWorkload.exponential(mean_on_seconds=0.5, mean_off_seconds=0.3)
            for _ in range(n_flows)
        ]
    return [
        ByteFlowWorkload.exponential(mean_flow_bytes=1e6, mean_off_seconds=0.3)
        for _ in range(n_flows)
    ]


def run_flood(spec, workload_kind="timed", training=True, sim_class=Simulation, **sim_kwargs):
    """One RemyCC flood; returns the result and the per-whisker statistics."""
    tree = WhiskerTree(default_action=RUNAWAY)
    protocols = [RemyCCProtocol(tree, training=training) for _ in range(spec.n_flows)]
    result = sim_class(
        spec,
        protocols,
        flood_workloads(workload_kind, spec.n_flows),
        duration=DURATION,
        seed=FLOOD_SEED,
        **sim_kwargs,
    ).run()
    whiskers = [(w.use_count, list(w._samples)) for w in tree.whiskers()]
    return result, whiskers


def exact_fields(result: SimulationResult) -> list[dict]:
    return [
        {name: getattr(stats, name) for name in EXACT_FIELDS}
        for stats in result.flow_stats
    ]


def assert_sealed_matches_reference(sealed, reference) -> None:
    sealed_result, sealed_whiskers = sealed
    reference_result, reference_whiskers = reference
    assert sealed_result.sealed_at is not None, "the flood did not drown the link"
    assert reference_result.sealed_at is None
    assert exact_fields(sealed_result) == exact_fields(reference_result)
    assert sealed_whiskers == reference_whiskers
    assert sealed_result.queue_drops == reference_result.queue_drops == 0
    # The send-side counters and the event count stop at the seal.
    for mine, theirs in zip(sealed_result.flow_stats, reference_result.flow_stats):
        for name in SEND_SIDE:
            assert getattr(mine, name) <= getattr(theirs, name), name
    assert sealed_result.events_processed < reference_result.events_processed


# ---------------------------------------------------------------------------
# Bit-equality against the giant-DropTail reference
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def references(heap_only):
    """Reference runs, one per (workload, training) — simulated once."""
    cache: dict[tuple[str, bool], tuple] = {}

    def get(workload_kind: str, training: bool):
        key = (workload_kind, training)
        if key not in cache:
            cache[key] = run_flood(
                flood_spec("droptail"), workload_kind, training, heap_only
            )
        return cache[key]

    return get


@pytest.mark.parametrize("kernel", ["generic", "auto"])
@pytest.mark.parametrize("training", [True, False], ids=["training", "execution"])
@pytest.mark.parametrize("workload_kind", ["timed", "byte"])
def test_sealed_run_matches_unsealed_reference(references, workload_kind, training, sim_class):
    sealed = run_flood(flood_spec("infinite"), workload_kind, training, sim_class)
    assert_sealed_matches_reference(sealed, references(workload_kind, training))


@pytest.mark.parametrize("workload_kind", ["timed", "byte"])
def test_both_kernels_seal_at_the_same_instant(workload_kind, heap_only):
    generic, _ = run_flood(flood_spec("infinite"), workload_kind, sim_class=heap_only)
    fused, _ = run_flood(flood_spec("infinite"), workload_kind)
    assert generic.sealed_at is not None
    assert fused.sealed_at == generic.sealed_at
    # Past the seal the two wirings still do the same thing.
    assert [dataclasses.asdict(s) for s in fused.flow_stats] == [
        dataclasses.asdict(s) for s in generic.flow_stats
    ]
    assert fused.events_processed == generic.events_processed


def test_sealed_at_is_past_the_point_of_no_return():
    spec = flood_spec("infinite")
    result, _ = run_flood(spec)
    # At the seal the backlog outlasts the run: fewer packets were delivered
    # by the end than had been accepted by the seal.
    delivered = sum(stats.queue_delay_count for stats in result.flow_stats)
    capacity = spec.link_rate_bps * DURATION / (spec.mss_bytes * 8)
    assert 0.0 < result.sealed_at < DURATION
    assert delivered <= capacity + 1


def test_an_armed_link_seals_itself_on_a_direct_receive():
    # The check belongs to the link: packets handed straight to ``receive``,
    # with no sender anywhere, drown it just the same.  At 1500 bytes/s and
    # a run ending at 1 s the budget is 1 s of service plus 2 MSS = 4500
    # bytes; the enqueue that leaves more than that queued seals, once.
    scheduler = EventScheduler()
    link = ConstantRateLink(scheduler, rate_bps=12_000.0, queue=InfiniteQueue())
    link.connect(lambda packet: None)
    seals: list[int] = []
    link.arm_seal(end_time=1.0, mss_bytes=1500, on_seal=lambda: seals.append(len(link.queue)))
    for seq in range(4):  # the first starts service at once: 4500 bytes queued
        link.receive(Packet(0, seq))
    assert seals == []
    for seq in range(4, 8):
        link.receive(Packet(0, seq))
    assert seals == [4]


@pytest.mark.parametrize("kernel", ["generic", "auto"])
def test_retransmission_clock_survives_the_seal(sim_class):
    """The case a sender that simply fell silent at the seal gets wrong.

    Flow 0 (a one-packet-window RemyCC) is overtaken by an open-loop flood,
    times out spuriously *before* the seal — so a retransmitted copy sits
    deep in the backlog — and has its whole flight acknowledged afterwards.
    Unsealed, its next segment can never be acknowledged, the RTO keeps
    firing and resetting the RemyCC's memory, and the late duplicate ACK of
    that queued copy is looked up from the reset memory.  Sealing must
    reproduce that: the whisker samples are the witness.
    """

    def run(queue):
        tree = WhiskerTree(default_action=Action(1.0, 0.0, 0.01))
        spec = NetworkSpec(
            link_rate_bps=1e6, rtt=0.05, n_flows=2, queue=queue, buffer_packets=GIANT_BUFFER
        )
        result = sim_class(
            spec,
            [RemyCCProtocol(tree, training=True), ConstantRate(2500.0)],
            [AlwaysOnWorkload(0.0), AlwaysOnWorkload(0.5)],
            duration=10.0,
            seed=1,
        ).run()
        return result, [(w.use_count, list(w._samples)) for w in tree.whiskers()]

    sealed, reference = run("infinite"), run("droptail")
    assert_sealed_matches_reference(sealed, reference)
    # The scenario is the one described: timeouts on both sides of the seal,
    # a duplicate (retransmitted) delivery, and the memory resets all of it
    # implies show in the reference's own timeout count.
    assert reference[0].flow_stats[0].timeouts >= 4
    assert sealed[0].flow_stats[0].timeouts == reference[0].flow_stats[0].timeouts


@pytest.mark.parametrize("kernel", ["generic", "auto"])
def test_sealed_run_passes_the_invariant_sanitizer(sim_class):
    plain = run_flood(flood_spec("infinite"), sim_class=sim_class)
    checked = run_flood(flood_spec("infinite"), sim_class=sim_class, debug_invariants=True)
    assert checked[0].sealed_at == plain[0].sealed_at is not None
    assert [dataclasses.asdict(s) for s in checked[0].flow_stats] == [
        dataclasses.asdict(s) for s in plain[0].flow_stats
    ]
    assert checked[1] == plain[1]
    assert checked[0].events_processed == plain[0].events_processed


# ---------------------------------------------------------------------------
# Eligibility: a property of the topology spec, nothing else
# ---------------------------------------------------------------------------
#: The flood dumbbell spelled as the path it is.
ONE_HOP = PathSpec(
    forward=(LinkSpec(rate_bps=10e6, queue="infinite", name="bottleneck"),),
    rtt=0.1,
    n_flows=3,
)
INELIGIBLE = {
    "finite-droptail": flood_spec("droptail", buffer_packets=1000),
    "giant-droptail": flood_spec("droptail"),
    "codel": flood_spec("codel"),
    "sfqcodel": flood_spec("sfqcodel"),
    "lossy": flood_spec("infinite", loss_rate=0.01),
    "trace-driven": flood_spec(
        "infinite", delivery_trace=verizon_lte_trace(duration_seconds=4.0, seed=1)
    ),
    "queue-factory": flood_spec("infinite").with_queue(
        flood_spec("infinite").make_queue
    ),
    # Paths that are not dumbbells, each with an unlimited first queue.
    "two-hop": dataclasses.replace(
        ONE_HOP, forward=(ONE_HOP.forward[0], LinkSpec(rate_bps=20e6))
    ),
    "delayed-hop": dataclasses.replace(
        ONE_HOP, forward=(dataclasses.replace(ONE_HOP.forward[0], delay=0.01),)
    ),
    "reverse-hop": dataclasses.replace(ONE_HOP, reverse=(LinkSpec(rate_bps=20e6),)),
}


def test_sealable_is_exactly_the_design_time_model():
    # A property of the path's shape: either spelling of the dumbbell has it.
    assert ONE_HOP.sealable and flood_spec("infinite").to_path_spec().sealable
    for name, spec in INELIGIBLE.items():
        assert not spec.to_path_spec().sealable, name


@pytest.mark.parametrize("name", sorted(INELIGIBLE))
def test_ineligible_topologies_never_seal(name):
    result, _ = run_flood(INELIGIBLE[name], training=False)
    assert result.sealed_at is None
    assert sum(stats.packets_sent for stats in result.flow_stats) > 0


def test_single_hop_path_simulates_every_send(heap_only):
    # ... unless it is the sealable shape.  Spelled as a path, the flood
    # dumbbell seals at the same instant with identical results; behind a
    # giant DropTail the same one-hop path simulates every send and stays
    # the unsealed reference.
    assert ONE_HOP == flood_spec("infinite").to_path_spec()
    for sim_class in (heap_only, Simulation):
        dumbbell = run_flood(flood_spec("infinite"), sim_class=sim_class)
        path = run_flood(ONE_HOP, sim_class=sim_class)
        assert path[0].sealed_at == dumbbell[0].sealed_at is not None, sim_class
        assert path == dumbbell, sim_class
    reference = run_flood(flood_spec("droptail").to_path_spec())
    assert_sealed_matches_reference(path, reference)


@pytest.mark.parametrize("cell_name", scenario_names())
def test_no_registered_cell_seals_at_canonical_size(cell_name):
    # The goldens pin send-side counters and event counts, so a registered
    # cell that sealed would have moved its fingerprint; say so directly.
    if not FULL_MATRIX and cell_name not in {s.name for s in smoke_scenarios()}:
        pytest.skip(f"{cell_name} runs in the full matrix only (set SCENARIO_MATRIX=full)")
    assert get_scenario(cell_name).run().sealed_at is None


# ---------------------------------------------------------------------------
# Backends carry the sealed result unchanged
# ---------------------------------------------------------------------------
def test_serial_and_pool_return_the_same_sealed_result():
    spec = flood_spec("infinite")
    job = SimJob(
        job_id=0,
        spec=spec,
        duration=DURATION,
        seed=FLOOD_SEED,
        workloads=tuple(flood_workloads("timed", spec.n_flows)),
        tree=WhiskerTree(default_action=RUNAWAY),
        training=False,
    )
    [serial] = SerialBackend().run_batch([job])
    with ProcessPoolBackend(max_workers=2) as pool:
        [pooled] = pool.run_batch([job])
    assert serial.result.sealed_at is not None
    assert pooled.result == serial.result


def test_results_pickled_before_the_flags_existed_still_load():
    result, _ = run_flood(flood_spec("infinite"), training=False)
    for name in ("sealed_at", "truncated"):
        del result.__dict__[name]  # what an older worker's pickle carries
    loaded = pickle.loads(pickle.dumps(result))
    assert loaded.sealed_at is None and loaded.truncated is False


# ---------------------------------------------------------------------------
# The design loop: same tree, same scores, counted seals
# ---------------------------------------------------------------------------
def design_range(buffer_packets=None) -> ConfigRange:
    return ConfigRange(
        link_speed_bps=ParameterRange.exact(4e6),
        rtt_seconds=ParameterRange.exact(0.08),
        n_senders=ParameterRange.exact(2),
        mean_on_seconds=ParameterRange.exact(2.0),
        mean_off_seconds=ParameterRange.exact(1.0),
        buffer_packets=buffer_packets,
    )


def design_run(buffer_packets=None):
    evaluator = Evaluator(
        design_range(buffer_packets),
        Objective.proportional(delta=1.0),
        EvaluatorSettings(num_specimens=2, sim_duration=1.0, seed=3),
    )
    optimizer = RemyOptimizer(
        evaluator,
        tree=WhiskerTree(name="seal"),
        settings=OptimizerSettings(max_epochs=1, max_evaluations=30),
    )
    tree = optimizer.optimize()
    return whisker_tree_to_dict(tree), optimizer.state


def test_design_run_is_unchanged_by_sealing():
    sealed_tree, sealed_state = design_run()
    # A giant DropTail buffer from the range: the unsealed reference.
    reference_tree, reference_state = design_run(buffer_packets=GIANT_BUFFER)
    assert sealed_state.sealed_simulations > 0
    assert reference_state.sealed_simulations == 0
    assert sealed_tree == reference_tree
    assert sealed_state.score_history == reference_state.score_history
    assert sealed_state.improvements == reference_state.improvements
    assert sealed_state.truncated_simulations == 0


# ---------------------------------------------------------------------------
# Event-cap truncation is loud
# ---------------------------------------------------------------------------
def test_event_cap_sets_truncated_and_stops_the_clock():
    spec = flood_spec("droptail", buffer_packets=100)
    full, _ = run_flood(spec, training=False)
    capped, _ = run_flood(spec, training=False, max_events=2_000)
    assert not full.truncated
    assert capped.truncated
    assert capped.events_processed <= 2_000 < full.events_processed
    # On-time is closed at the truncation point, not at the requested end.
    assert all(
        mine.on_time <= theirs.on_time
        for mine, theirs in zip(capped.flow_stats, full.flow_stats)
    )
    assert sum(s.on_time for s in capped.flow_stats) < sum(
        s.on_time for s in full.flow_stats
    )


def test_optimizer_counts_and_warns_once_per_truncated_evaluation(caplog):
    evaluator = Evaluator(
        design_range(),
        Objective.proportional(delta=1.0),
        EvaluatorSettings(
            num_specimens=2, sim_duration=1.0, seed=3, max_events_per_sim=50
        ),
    )
    result = evaluator.evaluate(WhiskerTree(), training=False)
    assert 1 <= result.truncated_simulations <= result.simulations == 2

    optimizer = RemyOptimizer(
        evaluator, settings=OptimizerSettings(max_epochs=1, max_evaluations=3)
    )
    with caplog.at_level(logging.WARNING, logger="repro.core.optimizer"):
        optimizer.optimize()
    warnings = [r for r in caplog.records if "truncated" in r.getMessage()]
    # Every evaluation of this run scored a truncated simulation: one
    # warning each, however many of its simulations were cut short.
    assert len(warnings) == optimizer.state.evaluations_used >= 3
    assert optimizer.state.truncated_simulations >= optimizer.state.evaluations_used


def test_untruncated_design_run_logs_no_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="repro.core.optimizer"):
        design_run()
    assert not caplog.records


def test_checkpoint_without_the_new_counters_still_loads(tmp_path):
    evaluator = Evaluator(
        design_range(),
        Objective.proportional(delta=1.0),
        EvaluatorSettings(num_specimens=2, sim_duration=1.0, seed=3),
    )
    optimizer = RemyOptimizer(evaluator)
    optimizer.state = OptimizerState(evaluations_used=5, sealed_simulations=7)
    document = optimizer.checkpoint_dict()
    assert document["state"]["sealed_simulations"] == 7
    del document["state"]["sealed_simulations"]
    del document["state"]["truncated_simulations"]
    path = save_json_atomic(json.loads(json.dumps(document)), tmp_path / "old.json")
    restored = RemyOptimizer.resume_from_checkpoint(path, evaluator)
    assert restored.state.evaluations_used == 5
    assert restored.state.sealed_simulations == 0
    assert restored.state.truncated_simulations == 0
