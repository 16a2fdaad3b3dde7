"""Checkpoint/resume tests for the Remy design loop.

The checkpoint is the designed table itself: the rule table with a
``design`` block.  The acceptance property: a run interrupted at an epoch
boundary and resumed from its file produces exactly the same final tree and
score history as an uninterrupted run.  That works because ``_run_epoch``
begins with a training evaluation that replaces the per-whisker statistics,
so the epoch boundary depends on nothing but what the file captures — tree
structure/actions/epochs, the ``OptimizerState`` counters, both settings
objects, the objective, the drawn specimens and the evaluator seed
schedule.  The backend is not among them: a run may be resumed on a box of
a different width.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import replace

import pytest

from repro.core.config import ConfigRange, ParameterRange, general_purpose_range
from repro.core.evaluator import Evaluator, EvaluatorSettings
from repro.core.objective import Objective
from repro.core.optimizer import CHECKPOINT_FORMAT_VERSION, OptimizerSettings, RemyOptimizer
from repro.core.serialization import (
    REMYCC_DIR,
    load_remycc,
    save_json_atomic,
    whisker_tree_to_dict,
)
from repro.core.whisker_tree import WhiskerTree
from repro.runner import (
    FaultPlan,
    ProcessPoolBackend,
    fault_plan_installed,
    whisker_tree_token,
)


def tiny_range() -> ConfigRange:
    return ConfigRange(
        link_speed_bps=ParameterRange.exact(4e6),
        rtt_seconds=ParameterRange.exact(0.08),
        n_senders=ParameterRange.exact(2),
        mean_on_seconds=ParameterRange.exact(2.0),
        mean_off_seconds=ParameterRange.exact(1.0),
    )


def make_evaluator(
    seed: int = 3, num_specimens: int = 2, backend=None, delta: float = 1.0, config_range=None
) -> Evaluator:
    return Evaluator(
        tiny_range() if config_range is None else config_range,
        Objective.proportional(delta=delta),
        EvaluatorSettings(
            num_specimens=num_specimens, sim_duration=1.0, seed=seed
        ),
        backend=backend,
    )


#: Small but real: this budget improves actions and performs a split, so
#: the resumed run crosses both an improvement epoch and a split boundary.
#: The coarse improvement threshold keeps the epoch-0 hill climb short
#: enough that several epoch boundaries fit inside the evaluation budget.
SETTINGS = OptimizerSettings(
    max_epochs=4,
    max_evaluations=200,
    epochs_per_split=2,
    improvement_threshold=0.05,
)


@pytest.fixture(scope="module")
def reference_file(tmp_path_factory):
    """Where the reference run writes its designed table."""
    return tmp_path_factory.mktemp("reference") / "design.json"


@pytest.fixture(scope="module")
def reference_run(reference_file):
    optimizer = RemyOptimizer(
        make_evaluator(),
        tree=WhiskerTree(name="ckpt"),
        settings=SETTINGS,
        checkpoint_path=reference_file,
    )
    tree = optimizer.optimize()
    assert optimizer.state.splits >= 1, "reference run must exercise a split"
    assert optimizer.state.improvements >= 1
    return tree, optimizer.state


#: sha256 over the reference run's final tree and score history (floats by
#: ``repr``).  Recorded before sealing, candidate deduplication and the climb
#: memo landed: none of them may move a rule, an action or a single score.
#: Re-recorded once, when a flow on for less than its base RTT stopped being
#: scored and a flow that delivered nothing stopped scoring a constant.
REFERENCE_RUN_DIGEST = "5e79cccf3bff7029b73558deb46378dab61dc4ca18040018372240d496cf7933"


class TestPinnedRun:
    def test_reference_run_keeps_its_tree_and_score_history(self, reference_run):
        tree, state = reference_run
        document = [whisker_tree_to_dict(tree), [repr(s) for s in state.score_history]]
        digest = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode()
        ).hexdigest()
        assert digest == REFERENCE_RUN_DIGEST
        assert (state.evaluations_used, state.improvements, state.splits) == (200, 1, 1)
        # Most of this run's simulations drown the design-time queue.
        assert state.sealed_simulations > 100
        assert state.truncated_simulations == 0


class TestCheckpointWriting:
    def test_no_checkpoint_path_is_a_noop(self):
        optimizer = RemyOptimizer(make_evaluator())
        assert optimizer.save_checkpoint() is None

    def test_checkpoint_written_at_epoch_boundaries(self, tmp_path):
        path = tmp_path / "design.ckpt.json"
        optimizer = RemyOptimizer(
            make_evaluator(),
            tree=WhiskerTree(name="ckpt"),
            settings=replace(SETTINGS, max_epochs=1),
            checkpoint_path=path,
        )
        optimizer.optimize()
        data = json.loads(path.read_text())
        assert data["origin"] == "designed"
        design = data["design"]
        assert design["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert design["state"]["global_epoch"] == 1
        assert design["seed"] == 3
        assert len(design["seed_schedule"]) == 2
        # Atomic write: no temp file left behind.
        assert not list(tmp_path.glob("*.tmp"))

    def test_the_file_loads_as_the_designed_table(self, tmp_path):
        path = tmp_path / "design.json"
        optimizer = RemyOptimizer(
            make_evaluator(),
            tree=WhiskerTree(name="ckpt"),
            settings=replace(SETTINGS, max_epochs=1),
            checkpoint_path=path,
        )
        optimizer.optimize()
        tree = load_remycc(path)
        assert tree.name == "ckpt"
        assert whisker_tree_token(tree) == whisker_tree_token(optimizer.tree)

    def test_fresh_state_round_trips_minus_inf_best_score(self, tmp_path):
        optimizer = RemyOptimizer(make_evaluator())
        assert optimizer.checkpoint_dict()["design"]["state"]["best_score"] is None
        path = save_json_atomic(optimizer.checkpoint_dict(), tmp_path / "c.json")
        restored = RemyOptimizer.resume_from_checkpoint(path, make_evaluator())
        assert restored.state.best_score == float("-inf")


class TestResume:
    def test_resumed_run_is_bit_identical(self, tmp_path, reference_run, reference_file):
        ref_tree, ref_state = reference_run
        path = tmp_path / "design.ckpt.json"

        # Interrupt at the epoch-2 boundary (of 4), where the first split
        # clears the design memo, then resume.
        partial = RemyOptimizer(
            make_evaluator(),
            tree=WhiskerTree(name="ckpt"),
            settings=replace(SETTINGS, max_epochs=2),
            checkpoint_path=path,
        )
        partial.optimize()
        assert partial.state.global_epoch == 2

        resumed = RemyOptimizer.resume_from_checkpoint(path, make_evaluator())
        resumed.settings = replace(resumed.settings, max_epochs=SETTINGS.max_epochs)
        resumed_tree = resumed.optimize()

        assert whisker_tree_to_dict(resumed_tree) == whisker_tree_to_dict(ref_tree)
        # Both memos were empty at the split, so even the remembered count
        # matches: the resumed run writes the uninterrupted run's file.
        assert resumed.state == ref_state
        assert path.read_bytes() == reference_file.read_bytes()

    def test_serial_checkpoint_resumed_on_a_pool_matches_the_serial_run(self, tmp_path):
        # Long enough that the post-resume split evaluation fires one rule
        # more than the sample bound in its last specimen — the case in which
        # a pool used to keep a different sample than a serial run.
        def evaluator(backend=None):
            return Evaluator(
                general_purpose_range(),
                Objective.proportional(delta=1.0),
                EvaluatorSettings(num_specimens=2, sim_duration=4.0, seed=0),
                backend=backend,
            )

        settings = OptimizerSettings(
            max_epochs=2, max_evaluations=90, epochs_per_split=1, improvement_threshold=1.0
        )
        reference = RemyOptimizer(evaluator(), tree=WhiskerTree(name="ckpt"), settings=settings)
        reference.optimize()
        assert reference.state.splits == 2

        path = tmp_path / "design.ckpt.json"
        partial = RemyOptimizer(
            evaluator(),
            tree=WhiskerTree(name="ckpt"),
            settings=replace(settings, max_epochs=1),
            checkpoint_path=path,
        )
        partial.optimize()
        assert (partial.state.global_epoch, partial.state.splits) == (1, 1)

        with ProcessPoolBackend(max_workers=2) as backend:
            resumed = RemyOptimizer.resume_from_checkpoint(path, evaluator(backend))
            resumed.settings = replace(resumed.settings, max_epochs=settings.max_epochs)
            resumed.optimize()
        assert whisker_tree_token(resumed.tree) == whisker_tree_token(reference.tree)
        assert resumed.state.score_history == reference.state.score_history

    def test_pool_resume_ends_with_the_whole_state_of_the_serial_run(self, tmp_path):
        # A resumed run starts with an empty design memo.  From eight rules
        # at the default action both epochs improve a rule and both remember
        # candidates.  Where epoch 1 revisits a table epoch 0 scored, the
        # resumed run simulates it again: its remembered count falls short by
        # exactly those simulations, and every other field is the same.
        def eight_rules():
            tree = WhiskerTree(name="ckpt")
            make_evaluator().evaluate(tree, training=True)
            tree.split_whisker(tree.most_used())
            return tree

        settings = OptimizerSettings(
            max_epochs=2, max_evaluations=500, improvement_threshold=0.05
        )
        reference_evaluator = make_evaluator()
        reference = RemyOptimizer(reference_evaluator, tree=eight_rules(), settings=settings)
        reference.optimize()

        path = tmp_path / "design.ckpt.json"
        partial_evaluator = make_evaluator()
        partial = RemyOptimizer(
            partial_evaluator,
            tree=eight_rules(),
            settings=replace(settings, max_epochs=1),
            checkpoint_path=path,
        )
        partial.optimize()
        assert (
            0
            < partial.state.remembered_evaluations
            < reference.state.remembered_evaluations
        )

        with ProcessPoolBackend(max_workers=2) as backend:
            resumed_evaluator = make_evaluator(backend=backend)
            resumed = RemyOptimizer.resume_from_checkpoint(path, resumed_evaluator)
            resumed.settings = replace(resumed.settings, max_epochs=settings.max_epochs)
            resumed.optimize()
        extra_simulations = (
            partial_evaluator.evaluations
            + resumed_evaluator.evaluations
            - reference_evaluator.evaluations
        )
        shortfall = (
            reference.state.remembered_evaluations - resumed.state.remembered_evaluations
        )
        assert shortfall == extra_simulations
        assert replace(resumed.state, remembered_evaluations=0) == replace(
            reference.state, remembered_evaluations=0
        )
        assert whisker_tree_token(resumed.tree) == whisker_tree_token(reference.tree)

    def test_checkpoint_written_before_the_memo_still_loads(self, tmp_path):
        optimizer = RemyOptimizer(make_evaluator())
        document = optimizer.checkpoint_dict()
        assert document["design"]["state"].pop("remembered_evaluations") == 0
        path = save_json_atomic(document, tmp_path / "old.json")
        restored = RemyOptimizer.resume_from_checkpoint(path, make_evaluator())
        assert restored.state.remembered_evaluations == 0

    def test_resume_keeps_checkpointing_to_the_same_file(self, tmp_path):
        path = tmp_path / "design.ckpt.json"
        partial = RemyOptimizer(
            make_evaluator(),
            tree=WhiskerTree(name="ckpt"),
            settings=replace(SETTINGS, max_epochs=1),
            checkpoint_path=path,
        )
        partial.optimize()
        resumed = RemyOptimizer.resume_from_checkpoint(path, make_evaluator())
        assert resumed.checkpoint_path == path
        resumed.settings = replace(resumed.settings, max_epochs=2)
        resumed.optimize()
        assert json.loads(path.read_text())["design"]["state"]["global_epoch"] == 2


class RecoveryLog(ProcessPoolBackend):
    """A pool that records ``(pool_rebuilds, degraded)`` after every batch."""

    def __init__(self, max_workers: int) -> None:
        super().__init__(max_workers)
        self.outcomes: list[tuple[int, bool]] = []

    def run_batch(self, jobs):
        results = super().run_batch(jobs)
        self.outcomes.append((self.pool_rebuilds, self.degraded))
        return results


class TestWorkerDeath:
    """A worker dies mid-design-run: every batch still completes, and the run
    ends with the serial reference run's tree and score history."""

    @staticmethod
    def design_on_a_pool(plan):
        with fault_plan_installed(plan), RecoveryLog(max_workers=2) as backend:
            optimizer = RemyOptimizer(
                make_evaluator(backend=backend), tree=WhiskerTree(name="ckpt"), settings=SETTINGS
            )
            optimizer.optimize()
        return optimizer, backend.outcomes

    @staticmethod
    def assert_same_run(optimizer, reference_run):
        ref_tree, ref_state = reference_run
        assert whisker_tree_token(optimizer.tree) == whisker_tree_token(ref_tree)
        assert optimizer.state.score_history == ref_state.score_history

    def test_every_batch_survives_on_a_rebuilt_pool(self, reference_run):
        # Every chunk's first attempt kills its worker.
        plan = FaultPlan(seed=5, crash_rate=1.0, max_faulty_attempts=1)
        optimizer, outcomes = self.design_on_a_pool(plan)
        self.assert_same_run(optimizer, reference_run)
        assert outcomes and set(outcomes) == {(1, False)}

    def test_a_pool_that_keeps_breaking_finishes_every_batch_here(
        self, reference_run, caplog
    ):
        with caplog.at_level(logging.WARNING, logger="repro.runner.backends"):
            optimizer, outcomes = self.design_on_a_pool(FaultPlan(seed=5, crash_rate=1.0))
        self.assert_same_run(optimizer, reference_run)
        assert outcomes and set(outcomes) == {(1, True)}
        warnings = [r.getMessage() for r in caplog.records if r.name == "repro.runner.backends"]
        assert len(warnings) == len(outcomes)
        assert all("jobs in this process" in message for message in warnings)


class TestResumeGuards:
    def _checkpoint(self, tmp_path):
        path = tmp_path / "design.ckpt.json"
        optimizer = RemyOptimizer(
            make_evaluator(),
            tree=WhiskerTree(name="ckpt"),
            settings=replace(SETTINGS, max_epochs=1),
            checkpoint_path=path,
        )
        optimizer.optimize()
        return path

    def test_rejects_different_evaluator_seed(self, tmp_path):
        path = self._checkpoint(tmp_path)
        with pytest.raises(ValueError, match="seed"):
            RemyOptimizer.resume_from_checkpoint(path, make_evaluator(seed=99))

    def test_rejects_different_specimen_count(self, tmp_path):
        path = self._checkpoint(tmp_path)
        with pytest.raises(ValueError, match="num_specimens"):
            RemyOptimizer.resume_from_checkpoint(
                path, make_evaluator(num_specimens=3)
            )

    def test_rejects_a_different_objective(self, tmp_path):
        path = self._checkpoint(tmp_path)
        with pytest.raises(ValueError, match=r"differ.*\(fields: objective\)"):
            RemyOptimizer.resume_from_checkpoint(path, make_evaluator(delta=10.0))

    def test_rejects_a_checkpoint_scored_under_the_old_floor(self, tmp_path):
        # Before a flow that delivered nothing scored one MSS over its
        # on-time, the objective had a ``normalize`` field and such a flow
        # scored a constant.  Scores from the two rules must not mix.
        path = self._checkpoint(tmp_path)
        data = json.loads(path.read_text())
        data["design"]["objective"]["normalize"] = True
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"differ.*\(fields: objective\)"):
            RemyOptimizer.resume_from_checkpoint(path, make_evaluator())

    @pytest.mark.parametrize(
        "change",
        [{"link_speed_bps": ParameterRange.exact(5e6)}, {"buffer_packets": 50}],
        ids=["link-speed", "buffer"],
    )
    def test_rejects_a_different_design_range(self, tmp_path, change):
        path = self._checkpoint(tmp_path)
        other = replace(tiny_range(), **change)
        with pytest.raises(ValueError, match=r"differ.*\(fields: specimens\)"):
            RemyOptimizer.resume_from_checkpoint(path, make_evaluator(config_range=other))

    def test_rejects_a_different_seed_schedule(self, tmp_path):
        # The specimens' packet-schedule seeds, should their derivation change.
        path = self._checkpoint(tmp_path)
        data = json.loads(path.read_text())
        data["design"]["seed_schedule"].reverse()
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"differ.*\(fields: seed_schedule\)"):
            RemyOptimizer.resume_from_checkpoint(path, make_evaluator())

    def test_rejects_format_version_1(self, tmp_path):
        # Version 1 recorded neither the objective nor the specimens.
        path = self._checkpoint(tmp_path)
        data = json.loads(path.read_text())
        data["design"]["format_version"] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=re.escape(f"{path}: unsupported checkpoint format version 1")):
            RemyOptimizer.resume_from_checkpoint(path, make_evaluator())

    def test_rejects_non_checkpoint_files(self):
        # A synthesized table has no design block.
        table = REMYCC_DIR / "delta1.json"
        with pytest.raises(ValueError, match=re.escape(f"{table} has no design block") + ".*load_remycc"):
            RemyOptimizer.resume_from_checkpoint(table, make_evaluator())

    def test_rejects_a_version_3_checkpoint(self, tmp_path):
        # Version 3 was a second file beside the table: the tree, state and
        # settings at the top level, with no design block.
        optimizer = RemyOptimizer(make_evaluator())
        design = optimizer.checkpoint_dict()["design"]
        path = save_json_atomic(
            {
                "format_version": 3,
                "tree": whisker_tree_to_dict(optimizer.tree),
                "state": design["state"],
                "settings": design["search"],
            },
            tmp_path / "v3.json",
        )
        with pytest.raises(ValueError, match=re.escape(f"{path} has no design block")):
            RemyOptimizer.resume_from_checkpoint(path, make_evaluator())

    def test_rejects_unknown_format_version(self, tmp_path):
        path = self._checkpoint(tmp_path)
        data = json.loads(path.read_text())
        data["design"]["format_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="version 99"):
            RemyOptimizer.resume_from_checkpoint(path, make_evaluator())
