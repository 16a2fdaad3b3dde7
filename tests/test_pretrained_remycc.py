"""Tests for the named rule tables and the RemyCC runtime protocol."""

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import TABLES
from repro.core.memory import MAX_MEMORY, Memory
from repro.core.serialization import (
    REMYCC_DIR,
    load_remycc,
    pretrained_remycc,
    pretrained_tree_names,
    whisker_tree_from_dict,
    whisker_tree_to_dict,
)
from repro.netsim.packet import AckInfo
from repro.protocols.remycc import RemyCCProtocol
from repro.runner.jobs import whisker_tree_token
from repro.experiments.base import Grid, remycc_scheme, run_cells
from repro.scenarios import ProtocolSpec, get_scenario
from repro.scenarios.spec import build_protocols

coords = st.floats(min_value=0.0, max_value=MAX_MEMORY, allow_nan=False)

#: ``whisker_tree_token`` of every table under ``results/remycc/``.  The
#: golden cells cover only ``delta1``, ``1x`` and ``coexist``, so for the
#: other four this pin is the only guard.  Replacing a table (for instance
#: by a designed one) updates its pin in the same change.
TOKENS = {
    "delta0.1": "1c50cbaf45bfd5f63ddf37769c02108cae087feb424621ee58006fa359dd5724",
    "delta1": "4ba9cfc04e8a58c9815c3ee4502f89588a6170adb0b65ff73896d6d4db0842cd",
    "delta10": "4bec09576773b1dee5797f2ef48558a02e2417e0bc54cbc5dbf188601c76c2f2",
    "1x": "9281c82b448a83db03991bc5dbdf818159951e1db9706188dcad748cdf35a5f5",
    "10x": "4bbb74ef7dab1b1a424bab587af60eb3cfab3b3c06dbdaa7e52baaa26dc64b84",
    "datacenter": "8c2e8508a6025fa9c2075a7b6b0ed2e12bb89b1af0d6384d5ef2e40ff3383f5c",
    "coexist": "01fe9ae448fb00c72ebc113c338856bc2361e98d3e8b08045544a775c115c46b",
}


class TestPretrainedTables:
    def test_all_names_build(self):
        # One file per pinned table, and nothing else under results/remycc/;
        # every table has its design problem.
        assert sorted(TABLES) == pretrained_tree_names() == sorted(TOKENS)

    @pytest.mark.parametrize("name", sorted(TOKENS))
    def test_table_file(self, name):
        raw = json.loads((REMYCC_DIR / f"{name}.json").read_text())
        tree = pretrained_remycc(name)
        assert raw.pop("origin") == "synthesized"
        assert raw == whisker_tree_to_dict(tree)
        assert len(tree) == 126
        # The root is a 14 x 1 x 9 grid over (ack_ewma, send_ewma, rtt_ratio).
        assert [len(cuts) for cuts in tree._root.index[:3]] == [13, 0, 8]
        assert whisker_tree_token(tree) == TOKENS[name]

    def test_every_call_returns_a_fresh_tree(self):
        first = pretrained_remycc("delta1")
        assert pretrained_remycc("delta1") is not first
        first.split_whisker(first.find(Memory(1.0, 1.0, 1.2)))
        assert len(first) > 126
        again = pretrained_remycc("delta1")
        assert len(again) == 126
        assert whisker_tree_token(again) == TOKENS["delta1"]

    def test_unknown_name_rejected(self):
        for name in ("nope", "../STUDY", "delta1.json", ""):
            with pytest.raises(ValueError, match="available"):
                pretrained_remycc(name)

    def test_lookup_is_total_over_memory_space(self):
        tree = pretrained_remycc("delta1")
        for memory in [
            Memory(0, 0, 0),
            Memory(MAX_MEMORY, MAX_MEMORY, MAX_MEMORY),
            Memory(0.01, 5000, 1.0),
            Memory(300, 0, 2.5),
        ]:
            action = tree.action_for(memory)
            assert action.intersend_ms > 0

    @given(point=st.tuples(coords, coords, coords))
    @settings(max_examples=100, deadline=None)
    def test_every_memory_value_maps_to_exactly_one_rule(self, point):
        tree = pretrained_remycc("delta0.1")
        memory = Memory(*point)
        matching = [w for w in tree.whiskers() if w.domain.contains(memory)]
        assert len(matching) == 1

    def test_delay_weight_orders_target_aggressiveness(self):
        """A congested memory state should make d=10 pace slower than d=0.1."""
        congested = Memory(ack_ewma=8.0, send_ewma=8.0, rtt_ratio=1.3)
        a01 = pretrained_remycc("delta0.1").action_for(congested)
        a10 = pretrained_remycc("delta10").action_for(congested)
        # The delay-sensitive table must not be more aggressive in this state.
        assert a10.window_increment <= a01.window_increment

    def test_known_link_speed_caps_pacing_rate(self):
        tree = pretrained_remycc("1x")
        fast_state = Memory(ack_ewma=0.1, send_ewma=0.1, rtt_ratio=1.05)
        action = tree.action_for(fast_state)
        # 15 Mbps is 1250 packets/s: the 1x table never paces much faster.
        assert action.intersend_ms >= 1000.0 / (1250 * 1.06)


def train(*args: str) -> subprocess.CompletedProcess:
    """``examples/train_remycc.py`` with ``args``, run from the repository root."""
    root = REMYCC_DIR.parents[1]
    return subprocess.run(
        [sys.executable, str(root / "examples" / "train_remycc.py"), *args],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )


class TestDesignedTable:
    """``train_remycc.py --table NAME`` designs a named table's problem."""

    def test_the_file_records_its_design_problem(self, tmp_path):
        out = tmp_path / "1x.json"
        proc = train(
            "--table", "1x", "--specimens", "1", "--sim-duration", "0.5",
            "--max-epochs", "1", "--max-evaluations", "3", "--output", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        raw = json.loads(out.read_text())
        assert raw["name"] == "remy-1x"
        assert raw.pop("origin") == "designed"
        design = raw.pop("design")
        design_range, objective = TABLES["1x"]
        assert design["range"] == asdict(design_range)
        assert design["objective"] == asdict(objective)
        assert (design["num_specimens"], design["sim_duration"]) == (1, 0.5)
        assert design["search"]["max_evaluations"] == 3
        state = design["state"]
        assert state["evaluations_used"] == len(state["score_history"]) >= 1
        # The loader ignores the block: the table is the tree without it.
        tree = load_remycc(out)
        assert tree.name == "remy-1x"
        assert whisker_tree_token(tree) == whisker_tree_token(whisker_tree_from_dict(raw))

    def test_a_resume_whose_budget_is_spent_is_refused_and_writes_nothing(self, tmp_path):
        out = tmp_path / "1x.json"
        design = ("--table", "1x", "--specimens", "1", "--sim-duration", "0.5", "--output", str(out))
        proc = train(*design, "--max-epochs", "1", "--max-evaluations", "3")
        assert proc.returncode == 0, proc.stderr
        written = out.read_bytes()
        used = json.loads(written)["design"]["state"]["evaluations_used"]
        for budget, spent in [
            (("--max-evaluations", str(used)), f"already used {used} evaluations"),
            (("--max-evaluations", "100", "--max-epochs", "1"), "already run 1 epochs"),
        ]:
            proc = train(*design, "--resume", *budget)
            assert proc.returncode == 2
            assert f"error: {out} has {spent}" in proc.stderr
            assert out.read_bytes() == written

    def test_an_unknown_table_is_refused_with_the_names(self, tmp_path):
        proc = train("--table", "delta2", "--output", str(tmp_path / "out.json"))
        assert proc.returncode == 2
        refusal, _, names = proc.stderr.partition("choose from")
        assert "--table" in refusal and "invalid choice" in refusal and "delta2" in refusal
        assert sorted(re.findall(r"[\w.]+", names)) == sorted(TABLES)
        assert not (tmp_path / "out.json").exists()


class TestRemyCCProtocol:
    def _ack(self, now, rtt):
        return AckInfo(now=now, newly_acked_bytes=1500, rtt=rtt, echo_sent_time=now - rtt)

    def test_flow_start_applies_startup_rule(self):
        tree = pretrained_remycc("delta1")
        cc = RemyCCProtocol(tree)
        cc.reset(now=0.0)
        startup_action = tree.action_for(Memory.initial())
        assert cc.cwnd == pytest.approx(startup_action.apply(1.0))
        assert cc.intersend_time == pytest.approx(startup_action.intersend_seconds)

    def test_acks_drive_window_through_rule_table(self):
        tree = pretrained_remycc("delta1")
        cc = RemyCCProtocol(tree)
        cc.reset(0.0)
        before = cc.cwnd
        now = 0.15
        for _ in range(20):
            cc.on_ack(self._ack(now, rtt=0.15))
            now += 0.01
        assert cc.cwnd != before
        assert cc.intersend_time > 0

    def test_memory_resets_between_flows(self):
        tree = pretrained_remycc("delta1")
        cc = RemyCCProtocol(tree)
        cc.reset(0.0)
        cc.on_ack(self._ack(0.15, rtt=0.15))
        assert cc.memory.rtt_ratio > 0
        cc.reset(5.0)
        assert cc.memory == Memory.initial()

    def test_loss_is_not_a_congestion_signal(self):
        tree = pretrained_remycc("delta0.1")
        cc = RemyCCProtocol(tree)
        cc.reset(0.0)
        window = cc.cwnd
        cc.on_loss(1.0)
        assert cc.cwnd == window

    def test_timeout_collapses_window(self):
        tree = pretrained_remycc("delta0.1")
        cc = RemyCCProtocol(tree)
        cc.reset(0.0)
        cc.on_timeout(1.0)
        assert cc.cwnd == 1.0

    def test_training_mode_records_use_counts(self):
        tree = pretrained_remycc("delta1")
        cc = RemyCCProtocol(tree, training=True)
        cc.reset(0.0)
        cc.on_ack(self._ack(0.15, rtt=0.15))
        assert tree.total_use_count() == 1

    def test_label_defaults_to_tree_name(self):
        tree = pretrained_remycc("delta10")
        assert RemyCCProtocol(tree).name == tree.name
        assert RemyCCProtocol(tree, label="custom").name == "custom"


class TestTableLoadsPerCell:
    """An execution-mode table is loaded once per process, by name, and shared
    by every flow and every run; a training-mode table is loaded fresh for
    each run and shared by that run's flows."""

    @pytest.fixture
    def loads(self, monkeypatch):
        import repro.core.serialization as serialization
        from repro.scenarios import spec

        names = []
        real = serialization.load_remycc

        def counting(path):
            names.append(path.stem)
            return real(path)

        monkeypatch.setattr(serialization, "load_remycc", counting)
        monkeypatch.setattr(spec, "_SHARED_TABLES", {})
        return names

    def test_four_remy_flows_load_one_table(self, loads):
        cell = get_scenario("bench-remy-droptail")
        protocols = cell.make_protocols()
        assert loads == ["delta1"]
        assert len({id(p.tree) for p in protocols}) == 1
        # The next run loads nothing: it executes the same table.
        assert cell.make_protocols()[0].tree is protocols[0].tree
        assert loads == ["delta1"]

    def test_mixed_cell_loads_each_name_once(self, loads):
        mixed = get_scenario("bench-remy-droptail").override(
            protocols=(
                ProtocolSpec("remy", "coexist"),
                ProtocolSpec("cubic"),
                ProtocolSpec("remy", "delta1"),
                ProtocolSpec("remy", "coexist"),
            )
        )
        protocols = mixed.make_protocols()
        assert loads == ["coexist", "delta1"]
        assert protocols[0].tree is protocols[3].tree
        assert protocols[0].tree is not protocols[2].tree

    def test_training_tables_load_fresh_for_each_run(self, loads):
        cell = get_scenario("bench-remy-training")
        first, second = cell.make_protocols(), cell.make_protocols()
        assert loads == ["delta1", "delta1"]
        assert len({id(p.tree) for p in first}) == 1
        assert first[0].tree is not second[0].tree
        shared = build_protocols((ProtocolSpec("remy", "delta1"),), 1)[0].tree
        assert shared not in (first[0].tree, second[0].tree)


class TestSharedTables:
    """Running a shared execution-mode table never writes to it."""

    def test_two_passes_leave_every_shared_table_as_loaded(self):
        names = ("delta1", "delta10", "coexist")
        specs = [ProtocolSpec("remy", name) for name in names]
        shared = [protocol.tree for protocol in build_protocols(specs, len(specs))]
        as_loaded = [(TOKENS[name], pretrained_remycc(name).usage()) for name in names]
        for _ in range(2):
            # A cell's own RemyCC flows, then two RemyCC schemes over a cell.
            run_cells(
                Grid(["bench-remy-droptail"], n_runs=1, duration=0.5),
                Grid(["fig4-dumbbell8"], [remycc_scheme("delta10"), remycc_scheme("coexist")],
                     n_runs=1, duration=0.5),
            )
            assert [(whisker_tree_token(tree), tree.usage()) for tree in shared] == as_loaded
        again = [protocol.tree for protocol in build_protocols(specs, len(specs))]
        assert all(tree is first for tree, first in zip(again, shared))
