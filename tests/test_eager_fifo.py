"""The eager FIFO dumbbell against the event path it replaces.

On a constant-rate dumbbell whose bottleneck is a plain FIFO (DropTail or
unlimited) and whose ACKs return over the ideal path, the link computes each
packet's service and arrival at enqueue, so a data packet costs one event,
its ACK (``ConstantRateLink``'s class doc).  The oracle is the event path it
replaces, the reference subclass with ``_eager = False``: every result but
``events_processed`` must be bit-identical — per-flow statistics, drops,
marks, ``sealed_at`` and a training run's whisker usage — with the lanes on
and off and under the sanitizer.  Cases: every registered dumbbell cell the
eager path serves, and seeded random specimens for what no cell reaches (a
finite DropTail that drops, an unlimited FIFO that seals, mixed RTTs, a
loss gate).
"""

from __future__ import annotations

import random

import pytest

from conftest import EventPathHeapOnlySimulation, EventPathSimulation, HeapOnlySimulation
from repro.core.action import Action
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.path import PathSpec
from repro.netsim.simulator import Simulation
from repro.protocols import Cubic, NewReno
from repro.protocols.remycc import RemyCCProtocol
from repro.scenarios import all_scenarios, flow_fingerprint
from repro.traffic.distributions import ExponentialDistribution
from repro.traffic.onoff import TimedFlowWorkload

#: ``tests/test_seal.py``'s runaway rule: it drowns an unlimited queue.
RUNAWAY = Action(window_multiple=1.01, window_increment=2.0, intersend_ms=0.002)

#: Eager and event path, lanes on and off; the sanitizer rides the first three.
ENGINES = {
    "eager-lanes": Simulation,
    "eager-heap": HeapOnlySimulation,
    "event-heap": EventPathHeapOnlySimulation,
}


def serves_eagerly(spec: PathSpec) -> bool:
    hop = spec.dumbbell_hop()
    return hop is not None and hop.queue in ("droptail", "infinite")


DUMBBELL_CELLS = [cell for cell in all_scenarios() if serves_eagerly(cell.network_spec())]


def outcome(sim_class, spec, make_protocols, workloads, duration, seed, **options):
    """Everything but the event count, and the event count."""
    protocols = make_protocols()
    trees = {id(p.tree): p.tree for p in protocols if isinstance(p, RemyCCProtocol)}
    for tree in trees.values():
        tree.reset_statistics()
    sim = sim_class(
        spec, protocols, workloads() if workloads else None,
        duration=duration, seed=seed, trace_flows=(0,), **options,
    )
    result = sim.run()
    digest = {
        "flows": [flow_fingerprint(stats) + [stats.sequence_trace] for stats in result.flow_stats],
        "drops": result.queue_drops,
        "marks": result.queue_marks,
        "sealed_at": result.sealed_at,
        "truncated": result.truncated,
        "whiskers": [tree.usage() for tree in trees.values()],
    }
    return digest, result.events_processed


def assert_eager_matches_event_path(spec, make_protocols, workloads, duration, seed):
    reference, reference_events = outcome(
        EventPathSimulation, spec, make_protocols, workloads, duration, seed
    )
    assert any(flow[2] for flow in reference["flows"]), "no flow received anything"
    events = {}
    for name, sim_class in ENGINES.items():
        digest, events[name] = outcome(
            sim_class, spec, make_protocols, workloads, duration, seed, debug_invariants=True
        )
        assert digest == reference, name
    plain, events["eager-plain"] = outcome(Simulation, spec, make_protocols, workloads, duration, seed)
    assert plain == reference
    assert events["event-heap"] == reference_events
    assert events["eager-lanes"] == events["eager-heap"] == events["eager-plain"]
    assert events["eager-lanes"] < reference_events / 2, "the eager path did not engage"
    return reference


@pytest.mark.parametrize("cell", DUMBBELL_CELLS, ids=lambda cell: cell.name)
def test_every_dumbbell_cell(cell):
    assert_eager_matches_event_path(
        cell.network_spec(), cell.make_protocols, cell.make_workloads, cell.duration, cell.seed
    )


def test_the_cells_cover_both_fifo_kinds_and_training():
    kinds = {cell.network_spec().dumbbell_hop().queue for cell in DUMBBELL_CELLS}
    assert len(DUMBBELL_CELLS) >= 10 and kinds >= {"droptail"}
    assert any(cell.name == "bench-remy-training" for cell in DUMBBELL_CELLS)


def _workloads(rng: random.Random, n_flows: int):
    mean_on, mean_off = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0)
    return lambda: [
        TimedFlowWorkload(ExponentialDistribution(mean_on), mean_off_seconds=mean_off)
        for _ in range(n_flows)
    ]


def specimen(kind: str, seed: int):
    """One random dumbbell of ``kind``: spec, protocol factory, workloads."""
    rng = random.Random(f"{kind}/{seed}")
    n_flows = rng.randint(2, 5)
    hop = {"rate_bps": rng.uniform(2e6, 12e6)}
    rtt = rng.uniform(0.02, 0.2)
    protocol = rng.choice([NewReno, Cubic])
    make_protocols = lambda: [protocol() for _ in range(n_flows)]  # noqa: E731
    workloads = _workloads(rng, n_flows)
    if kind == "droptail-drops":
        hop.update(queue="droptail", buffer_packets=rng.randint(4, 20))
        workloads = None
    elif kind == "unlimited-seals":
        hop.update(queue="infinite")
        tree = WhiskerTree(default_action=RUNAWAY)
        make_protocols = lambda: [RemyCCProtocol(tree, training=True) for _ in range(n_flows)]  # noqa: E731
    elif kind == "mixed-rtts":
        hop.update(queue="droptail", buffer_packets=rng.randint(10, 60))
        rtt = [rng.uniform(0.01, 0.3) for _ in range(n_flows)]
    elif kind == "loss-gate":
        hop.update(queue="droptail", buffer_packets=rng.randint(20, 100), loss_rate=rng.uniform(0.01, 0.05))
    spec = PathSpec.dumbbell(n_flows, rtt=rtt, **hop)
    return spec, make_protocols, workloads


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["droptail-drops", "unlimited-seals", "mixed-rtts", "loss-gate"])
def test_seeded_specimens(kind, seed):
    spec, make_protocols, workloads = specimen(kind, seed)
    result = assert_eager_matches_event_path(spec, make_protocols, workloads, 4.0, seed)
    if kind == "droptail-drops":
        assert result["drops"] > 0
    if kind == "unlimited-seals":
        assert result["sealed_at"] is not None
        assert any(usage.use_count for usage in result["whiskers"][0])
