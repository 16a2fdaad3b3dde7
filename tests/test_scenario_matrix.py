"""The golden-fingerprint matrix: every registered cell, four contracts.

For each cell of the scenario registry this suite checks:

* **golden** — a serial run at the cell's canonical ``(duration, seed)``
  reproduces the committed fingerprint in ``tests/golden/fingerprints.json``
  bit-exactly (regenerate deliberately with
  ``PYTHONPATH=src python tools/fingerprint.py --update``);
* **backend parity** — a :class:`~repro.runner.ProcessPoolBackend` run of the
  cell's :class:`~repro.runner.SimJob` matches the serial run, including for
  cells with mixed protocol sets (which ship as a registry name and are
  materialized in the worker);
* **sanitizer parity** — the cell passes every runtime invariant check
  (``debug_invariants=True``; conservation, monotonic time, queue
  accounting) and the instrumented run still reproduces the committed
  fingerprint bit-exactly;
* **kernel parity** — the cell's run (the constant-delay lane on uniform-RTT
  dumbbells, see :mod:`repro.netsim.kernel`) is bit-identical to a
  heap-only run (the ``heap_only`` fixture) and reproduces the cell's
  committed golden fingerprint.

Gating: registry-shape tests always run.  Per-cell simulations run for the
tier-1 *smoke subset* (one ``smoke=True`` cell per topology) by default; set
``SCENARIO_MATRIX=full`` (the bench CI job does) to run every cell.
"""

from __future__ import annotations

import os
import pickle

import pytest

from conftest import cell_job
from repro.netsim.simulator import Simulation
from repro.runner import ProcessPoolBackend, SerialBackend
from repro.scenarios import (
    ProtocolSpec,
    all_scenarios,
    get_scenario,
    load_golden,
    scenario_names,
    simulation_fingerprint,
    smoke_scenarios,
    topologies,
)

FULL_MATRIX = os.environ.get("SCENARIO_MATRIX", "").lower() in {"full", "all", "1"}
ALL_CELLS = scenario_names()
SMOKE_CELLS = {spec.name for spec in smoke_scenarios()}

#: Paper figures represented in the registry (acceptance floor of the matrix).
PAPER_CELLS = {
    "fig4-dumbbell8",
    "fig5-dumbbell12",
    "fig6-convergence",
    "fig7-lte4",
    "fig8-lte8",
    "fig9-att4",
    "fig10-rtt-fairness",
    "fig11-prior-1x",
    "datacenter-dctcp",
    "competing-remy-cubic",
}

#: Beyond-paper coverage cells.
NEW_CELLS = {
    "dumbbell-asym-rtt",
    "bursty-onoff-codel",
    "incast-sfqcodel",
    "cellular-lossy",
}

#: Multi-bottleneck / reverse-path cells (the PR 5 `path` topology).
PATH_CELLS = {
    "parking-lot-2bn",
    "chain-3hop",
    "reverse-ack-congestion",
    "multihop-mixed-aqm",
    "cellular-multihop-tail",
    "reverse-sfq-ack",
    "reverse-split-ack",
}


def _gate(cell_name: str) -> None:
    if not FULL_MATRIX and cell_name not in SMOKE_CELLS:
        pytest.skip(
            f"{cell_name} runs in the full matrix only (set SCENARIO_MATRIX=full)"
        )


@pytest.fixture(scope="module")
def pool_backend():
    """One 2-worker pool shared by every backend-parity case."""
    with ProcessPoolBackend(max_workers=2) as backend:
        yield backend


# ---------------------------------------------------------------------------
# Registry shape (always runs)
# ---------------------------------------------------------------------------
class TestRegistryShape:
    def test_at_least_twelve_cells(self):
        assert len(ALL_CELLS) >= 12

    def test_paper_figures_and_new_cells_registered(self):
        missing = (PAPER_CELLS | NEW_CELLS | PATH_CELLS) - set(ALL_CELLS)
        assert not missing, f"cells missing from the registry: {sorted(missing)}"
        assert len(NEW_CELLS) >= 4

    def test_path_topology_has_at_least_five_cells(self):
        registered = set(scenario_names(topology="path"))
        assert PATH_CELLS <= registered
        assert len(registered) >= 5
        # Coverage floor: at least one cell with a congestible reverse path,
        # one with per-flow hop subsets (parking-lot cross traffic) and one
        # trace-driven tail hop.
        from repro.scenarios import get_scenario as resolve

        assert any(resolve(n).network.reverse for n in registered)
        assert any(resolve(n).network.forward_hops for n in registered)
        assert any(
            hop.delivery_trace is not None for n in registered for hop in resolve(n).network.forward
        )

    def test_every_topology_has_exactly_one_smoke_cell(self):
        # The tier-1 smoke subset is "one cell per topology": the smoke flag
        # must form an exact system of representatives.
        by_topology = {spec.topology: 0 for spec in all_scenarios()}
        for spec in smoke_scenarios():
            by_topology[spec.topology] += 1
        assert all(count == 1 for count in by_topology.values()), by_topology
        assert sorted(by_topology) == topologies()

    def test_golden_covers_exactly_the_registered_cells(self):
        golden = load_golden()
        assert set(golden) == set(ALL_CELLS), (
            "golden fingerprints out of sync with the registry; run "
            "PYTHONPATH=src python tools/fingerprint.py --update and commit "
            "the diff (only if the change is deliberate)"
        )

    def test_cells_pickle_round_trip(self):
        for spec in all_scenarios():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.name == spec.name
            assert clone.network == spec.network

    def test_get_scenario_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="fig4-dumbbell8"):
            get_scenario("no-such-cell")

    def test_override_splits_network_and_scenario_fields(self):
        cell = get_scenario("fig4-dumbbell8")
        varied = cell.override(n_flows=3, duration=1.0, seed=7)
        assert varied.network.n_flows == 3
        assert varied.network.forward == cell.network.forward
        assert (varied.duration, varied.seed) == (1.0, 7)
        # The registered cell itself is untouched.
        assert get_scenario("fig4-dumbbell8").network.n_flows == 8

    def test_override_composes_explicit_network_with_field_kwargs(self):
        cell = get_scenario("fig4-dumbbell8")
        other = get_scenario("bursty-onoff-codel").network
        varied = cell.override(network=other, n_flows=3)
        assert varied.network.forward[0].queue == "codel"  # from the replacement
        assert varied.network.n_flows == 3  # the kwarg layered on top of it

    def test_override_sends_hop_fields_to_every_forward_hop(self):
        # Two forward hops and a reverse hop: a hop field lands on each
        # forward hop, the ACK path is left alone, and ``name`` (a LinkSpec
        # field too) still names the scenario.
        cell = get_scenario("bench-newreno-twohop")
        varied = cell.override(queue="codel", rate_bps=3e6, name="twohop-codel")
        assert [(hop.queue, hop.rate_bps) for hop in varied.network.forward] == [("codel", 3e6)] * 2
        assert [hop.name for hop in varied.network.forward] == [hop.name for hop in cell.network.forward]
        assert varied.network.reverse == cell.network.reverse
        assert varied.name == "twohop-codel"


# ---------------------------------------------------------------------------
# Matrix contracts (smoke subset by default, everything under SCENARIO_MATRIX=full)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cell_name", ALL_CELLS)
def test_cell_matches_golden_fingerprint(cell_name):
    _gate(cell_name)
    golden = load_golden()
    fingerprint = simulation_fingerprint(get_scenario(cell_name).run())
    assert fingerprint == golden[cell_name], (
        f"{cell_name} no longer reproduces its committed fingerprint; if the "
        "semantics change is deliberate, regenerate with "
        "tools/fingerprint.py --update"
    )


@pytest.mark.parametrize("cell_name", ALL_CELLS)
def test_cell_passes_under_invariant_sanitizer(cell_name):
    # Two contracts at once: the cell survives every runtime invariant
    # check (conservation, monotonic time, queue accounting — see
    # repro.netsim.invariants), and the sanitizer is observationally free —
    # the instrumented run reproduces the committed fingerprint, which was
    # generated with the sanitizer off.
    _gate(cell_name)
    golden = load_golden()
    fingerprint = simulation_fingerprint(
        get_scenario(cell_name).run(debug_invariants=True)
    )
    assert fingerprint == golden[cell_name]


@pytest.mark.parametrize("cell_name", ALL_CELLS)
def test_cell_serial_matches_process_pool(cell_name, pool_backend):
    _gate(cell_name)
    job = cell_job(cell_name)
    [serial] = SerialBackend().run_batch([job])
    [pooled] = pool_backend.run_batch([job])
    assert simulation_fingerprint(pooled.result) == simulation_fingerprint(
        serial.result
    )


@pytest.mark.parametrize("cell_name", ALL_CELLS)
def test_cell_generic_vs_selected_kernel_parity(cell_name, heap_only):
    # The kernel contract: what every cell runs — the lane on uniform-RTT
    # dumbbells, the plain heap elsewhere — is bit-identical to a heap-only
    # run, and both reproduce the committed golden fingerprint, which
    # predates the fused engine.
    _gate(cell_name)
    cell = get_scenario(cell_name)
    selected = simulation_fingerprint(cell.run())
    generic = simulation_fingerprint(heap_only.of(cell).run())
    assert selected == generic
    assert selected == load_golden()[cell_name], (
        f"{cell_name}: the engine diverged from the committed golden "
        "fingerprint — the event chain no longer replays the recorded order"
    )


# ---------------------------------------------------------------------------
# Reverse-path determinism and the mix_seed-seeded sweep runner (always runs)
# ---------------------------------------------------------------------------
class TestReversePathDeterminism:
    def _ack_trace(self, cell_name: str) -> list[list[tuple[float, int]]]:
        """Per flow, when each ACK reached the sender and what it acked."""
        cell = get_scenario(cell_name)
        sim = Simulation(
            cell.network, cell.make_protocols(), cell.make_workloads(),
            duration=cell.duration, seed=cell.seed, trace_flows=range(cell.network.n_flows),
        )
        return [stats.sequence_trace for stats in sim.run().flow_stats]

    @pytest.mark.parametrize("cell_name", ["reverse-ack-congestion", "reverse-sfq-ack"])
    def test_reverse_ack_ordering_is_reproducible(self, cell_name):
        # Stronger than result fingerprints: the exact instant each ACK that
        # crossed the congested reverse bottleneck reaches its sender — the
        # product of queueing, DRR rotation and (time, sequence) event
        # ordering — must replay identically for the cell's canonical seed.
        first = self._ack_trace(cell_name)
        second = self._ack_trace(cell_name)
        assert sum(map(len, first)) > 100, "reverse path carried almost no ACKs"
        assert first == second

    def test_congested_reverse_cell_fingerprint_is_seed_deterministic(self):
        cell = get_scenario("reverse-ack-congestion")
        assert simulation_fingerprint(cell.run()) == simulation_fingerprint(cell.run())


class TestScenarioSweep:
    def test_sweep_seeds_are_mix_seed_derived_and_collision_free(self):
        from repro.experiments.base import sweep_seed
        from repro.runner.jobs import mix_seed

        # The sweep derivation must be the SHA-mix, not arithmetic: cells
        # with the same base seed get independent streams, and the pairs the
        # old `base * 10_007 + run` arithmetic would collide stay distinct.
        assert sweep_seed("a-cell", 0, 1) != sweep_seed("b-cell", 0, 1)
        assert sweep_seed("a-cell", 1, 0) != sweep_seed("a-cell", 0, 10_007)
        assert sweep_seed("a-cell", 3, 2) == mix_seed("scenario-sweep", "a-cell", 3, 2)

    def test_sweep_grid_shape_and_determinism(self):
        from repro.analysis.summary import summarize_runs
        from repro.experiments.base import Grid, SchemeSpec, run_cells

        schemes = [
            SchemeSpec("NewReno", ProtocolSpec("newreno")),
            SchemeSpec("Vegas", ProtocolSpec("vegas")),
        ]
        cells = ["parking-lot-2bn", "reverse-ack-congestion"]

        def sweep():
            [grid] = run_cells(Grid(cells, schemes, n_runs=2, duration=1.0))
            return {
                cell: [
                    summarize_runs(scheme.name, runs)
                    for scheme, runs in zip(schemes, cell_runs)
                ]
                for cell, cell_runs in zip(cells, grid)
            }

        first = sweep()
        assert sorted(first) == sorted(cells)
        for cell_name, summaries in first.items():
            assert [s.scheme for s in summaries] == ["NewReno", "Vegas"]
            n_flows = get_scenario(cell_name).network.n_flows
            for summary in summaries:
                # One point per active flow per run (inactive on/off flows
                # contribute none).
                assert 0 < len(summary.throughputs_mbps) <= 2 * n_flows
        second = sweep()
        for cell_name in cells:
            for a, b in zip(first[cell_name], second[cell_name]):
                assert a.throughputs_mbps == b.throughputs_mbps
                assert a.queue_delays_ms == b.queue_delays_ms
