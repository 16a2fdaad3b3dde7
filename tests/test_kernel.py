"""Lane vs heap: lane rule and parity.

Two contracts:

* **Lane** — a :class:`Simulation` uses the scheduler's constant-delay lane
  on a constant-rate dumbbell whose flows share one RTT and leaves it empty
  on everything else; the heap-only reference (the ``heap_only`` fixture,
  ``_lanes = False``) runs the same closures with the lane empty.
* **Parity** — lane and heap runs of the same spec are bit-identical, in
  their results and per ACK at every sender (the full registry sweep lives
  in ``test_scenario_matrix.py``; here the shapes no registered cell
  reaches).
"""

from __future__ import annotations

import ast
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.netsim.events import EventScheduler
from repro.netsim.path import LinkSpec, PathSpec
from repro.netsim.simulator import Simulation
from repro.protocols.newreno import NewReno
from repro.scenarios import all_scenarios, simulation_fingerprint
from tools import count

REPO_ROOT = Path(__file__).resolve().parent.parent

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
    def test_auto_rides_the_lanes_on_a_dumbbell(self, rides_the_lane):
        assert rides_the_lane(_build(FLAT_SPEC))

    def test_auto_stays_on_the_heap_for_a_path(self, rides_the_lane):
        assert not rides_the_lane(_build(PATH_SPEC))

    def test_auto_stays_on_the_heap_for_a_delivery_trace(self, rides_the_lane):
        assert not rides_the_lane(_build(FLAT_SPEC.with_hops(delivery_trace=TRACE)))

    def test_per_flow_rtts_select_the_heap_and_equal_ones_the_lanes(self, rides_the_lane):
        assert not rides_the_lane(_build(replace(FLAT_SPEC, rtt=(0.05, 0.08))))
        assert rides_the_lane(_build(replace(FLAT_SPEC, rtt=(0.08, 0.08))))

    def test_generic_never_rides_the_lanes(self, rides_the_lane, heap_only):
        for spec in (FLAT_SPEC, PATH_SPEC):
            assert not rides_the_lane(_build(spec, heap_only))

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
        # RTT: finish events on the heap tie hand-offs on the lane and still
        # merge in order.
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

    @pytest.mark.parametrize("spec", [FLAT_SPEC, PATH_SPEC], ids=["dumbbell", "path"])
    def test_every_flows_ack_trace_matches_generic(self, spec, heap_only):
        # Per packet, not only per result: every ACK reaches its sender at
        # the same instant with the same cumulative point.
        def traces(sim_class):
            result = _build(spec, sim_class, trace_flows=range(spec.n_flows)).run()
            return [stats.sequence_trace for stats in result.flow_stats]

        fused = traces(Simulation)
        assert all(len(trace) > 100 for trace in fused)
        assert fused == traces(heap_only)

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
# tools/count.py: the exact work counts the bench CI job prints
# ---------------------------------------------------------------------------
CELL = "bench-newreno-droptail"


def _events_by_kind(row):
    return {key: n for key, n in row.items() if key.startswith("events")}


class TestCountTool:
    @pytest.fixture(autouse=True)
    def one_second_slice(self, monkeypatch):
        monkeypatch.setattr(count, "SLICE", 1.0)

    def test_two_counts_of_a_slice_are_equal(self):
        first, second = (count.count(lambda: count.run_cell(CELL, Simulation)) for _ in range(2))
        assert first == second
        assert first["opcodes"] > first["calls"] > first["events"] > 0

    def test_event_kinds_reconcile_with_events_processed(self):
        # count() checks frames - re-checks == events_processed itself; here
        # the RTO re-checks (uncount_event) do fire, so the check has teeth.
        row = count.count(lambda: count.run_cell(CELL, Simulation))
        frames = sum(n for key, n in row.items() if key.startswith("events: "))
        assert row["events: Sender._rto_fire"] > frames - row["events"] > 0

    def test_a_miscounted_event_is_caught(self, monkeypatch):
        def uncount_twice(scheduler):
            scheduler._processed -= 2

        monkeypatch.setattr(EventScheduler, "uncount_event", uncount_twice)
        with pytest.raises(SystemExit, match="re-checks are not"):
            count.count(lambda: count.run_cell(CELL, Simulation))

    def test_lanes_off_runs_the_lanes_events_by_kind(self, monkeypatch):
        rows = {}
        monkeypatch.setattr(count, "show", lambda name, row, parent: rows.update({name: row}))
        count.main(["--kernels", CELL])  # exits non-zero if they differ
        assert list(rows) == [CELL, f"{CELL} lanes-off", f"{CELL} eager-off"]
        assert _events_by_kind(rows[f"{CELL} lanes-off"]) == _events_by_kind(rows[CELL])
        assert rows[f"{CELL} eager-off"]["events"] > rows[CELL]["events"]

    def test_compare_against_its_own_tree_reads_one(self, capsys):
        count.main(["--compare", str(REPO_ROOT), CELL])
        header, *lines = capsys.readouterr().out.splitlines()
        assert header == f"{CELL}: change / parent, per simulated second"
        assert len(lines) > 3
        assert all(re.search(r" 1\.000( +[0-9.]+%)?$", line) for line in lines), lines

    def test_an_unknown_cell_names_the_registry(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            count.main(["no-such-cell"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown cell 'no-such-cell'; the registry: " in err and CELL in err

    def test_the_default_cells_are_the_sim_long_cells(self):
        # bench/metrics.py is read, not imported: the counter and
        # netsim.ns_per_event.<cell> name the same cells.
        metrics = ast.parse((REPO_ROOT / "bench" / "metrics.py").read_text())
        [cells] = [
            node.value for node in metrics.body
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SIM_LONG_CELLS"
        ]
        assert count.DEFAULT_CELLS == ast.literal_eval(cells)
