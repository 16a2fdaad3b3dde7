"""Tests for the Remy evaluator and the greedy optimizer (§4.3)."""

import pytest

from repro.core.action import Action
from repro.core.config import ConfigRange, ParameterRange
from repro.core.evaluator import Evaluator, EvaluatorSettings
from repro.core.objective import Objective
from repro.core.optimizer import OptimizerSettings, RemyOptimizer, design_remycc
from repro.core.whisker_tree import WhiskerTree
from repro.runner import SerialBackend


def tiny_range() -> ConfigRange:
    """A small, fast design range for tests."""
    return ConfigRange(
        link_speed_bps=ParameterRange.exact(4e6),
        rtt_seconds=ParameterRange.exact(0.08),
        n_senders=ParameterRange.exact(2),
        mean_on_seconds=ParameterRange.exact(2.0),
        mean_off_seconds=ParameterRange.exact(1.0),
    )


def tiny_settings(num_specimens=2, sim_duration=3.0) -> EvaluatorSettings:
    return EvaluatorSettings(num_specimens=num_specimens, sim_duration=sim_duration, seed=1)


class TestEvaluator:
    def test_evaluation_populates_scores_and_counts(self):
        evaluator = Evaluator(tiny_range(), Objective.proportional(1.0), tiny_settings())
        tree = WhiskerTree()
        result = evaluator.evaluate(tree, training=True)
        assert result.simulations == 2
        assert len(result.specimen_scores) == 2
        assert result.flow_scores  # at least one sender produced a score
        assert tree.total_use_count() > 0

    def test_non_training_mode_does_not_touch_counts(self):
        evaluator = Evaluator(tiny_range(), settings=tiny_settings())
        tree = WhiskerTree()
        evaluator.evaluate(tree, training=False)
        assert tree.total_use_count() == 0

    def test_same_tree_scores_identically(self):
        evaluator = Evaluator(tiny_range(), settings=tiny_settings())
        tree = WhiskerTree()
        a = evaluator.evaluate(tree, training=False)
        b = evaluator.evaluate(tree, training=False)
        assert a.score == pytest.approx(b.score)

    def test_obviously_bad_action_scores_worse(self):
        evaluator = Evaluator(tiny_range(), Objective.proportional(1.0), tiny_settings())
        from repro.core.pretrained import pretrained_remycc

        good = pretrained_remycc("delta1")
        # A tree that never opens its window and paces at 1 s cannot use the link.
        bad = WhiskerTree(default_action=Action(window_multiple=0.0, window_increment=1.0, intersend_ms=1000.0))
        good_score = evaluator.evaluate(good, training=False).score
        bad_score = evaluator.evaluate(bad, training=False).score
        assert good_score > bad_score

    def test_byte_mode_workloads(self):
        config = ConfigRange(
            link_speed_bps=ParameterRange.exact(4e6),
            rtt_seconds=ParameterRange.exact(0.08),
            n_senders=ParameterRange.exact(2),
            mean_on_seconds=ParameterRange.exact(2.0),
            mean_off_seconds=ParameterRange.exact(0.3),
            mean_on_bytes=ParameterRange.exact(50e3),
        )
        evaluator = Evaluator(config, settings=tiny_settings())
        result = evaluator.evaluate(WhiskerTree(), training=False)
        assert result.mean_throughput_mbps() > 0

    def test_duplicate_candidates_are_simulated_once(self):
        # At the default action with two magnitudes, clamping the pacing
        # interval to its floor folds several of the 124 neighbours together.
        class CountingBackend(SerialBackend):
            jobs_submitted = 0

            def run_batch(self, jobs):
                self.jobs_submitted += len(jobs)
                return super().run_batch(jobs)

        candidates = list(Action.default().neighbors(2))
        assert len(set(candidates)) < len(candidates)
        trees = [WhiskerTree(default_action=action) for action in candidates]
        settings = tiny_settings(sim_duration=0.5)

        backend = CountingBackend()
        evaluator = Evaluator(tiny_range(), settings=settings, backend=backend)
        results = evaluator.evaluate_many(trees, training=False)
        assert backend.jobs_submitted == len(set(candidates)) * settings.num_specimens
        assert backend.jobs_submitted < len(candidates) * settings.num_specimens
        # Budget accounting is per candidate, and every candidate — first
        # occurrence or duplicate — gets the score of its own simulation.
        assert evaluator.evaluations == len(results) == len(candidates)
        reference = Evaluator(tiny_range(), settings=settings)
        for tree, result in zip(trees, results):
            alone = reference.evaluate(tree, training=False)
            assert result.score == alone.score
            assert result.specimen_scores == alone.specimen_scores

    def test_training_evaluations_are_never_deduplicated(self):
        # A training pass writes usage statistics onto each tree it was
        # given, so equal tables must still be simulated separately.
        evaluator = Evaluator(tiny_range(), settings=tiny_settings(sim_duration=0.5))
        twins = [WhiskerTree(), WhiskerTree()]
        evaluator.evaluate_many(twins, training=True)
        assert twins[0].total_use_count() == twins[1].total_use_count() > 0

    def test_paper_scale_settings(self):
        settings = EvaluatorSettings.paper_scale()
        assert settings.num_specimens == 16
        assert settings.sim_duration == 100.0


class TestOptimizer:
    def test_settings_validation(self):
        with pytest.raises(ValueError):
            OptimizerSettings(epochs_per_split=0)
        with pytest.raises(ValueError):
            OptimizerSettings(candidate_magnitudes=0)
        with pytest.raises(ValueError):
            OptimizerSettings(max_epochs=0)

    def test_optimization_improves_or_maintains_score(self):
        evaluator = Evaluator(tiny_range(), Objective.proportional(1.0), tiny_settings())
        tree = WhiskerTree()
        baseline = evaluator.evaluate(tree, training=False).score
        optimizer = RemyOptimizer(
            evaluator,
            tree=tree,
            settings=OptimizerSettings(
                max_epochs=1, max_evaluations=30, candidate_magnitudes=1
            ),
        )
        optimizer.optimize()
        final = evaluator.evaluate(optimizer.tree, training=False).score
        assert final >= baseline - 1e-9
        assert optimizer.state.evaluations_used > 0

    def test_optimizer_starting_from_bad_action_improves(self):
        evaluator = Evaluator(tiny_range(), Objective.proportional(1.0), tiny_settings())
        # Paced at 3 ms per packet, two senders offer ~12 Mbps to a 4 Mbps
        # link: the candidate neighbourhood contains clearly better actions.
        bad_tree = WhiskerTree(default_action=Action(1.0, 1.0, 3.0))
        baseline = evaluator.evaluate(bad_tree, training=False).score
        optimizer = RemyOptimizer(
            evaluator,
            tree=bad_tree,
            settings=OptimizerSettings(max_epochs=1, max_evaluations=60, candidate_magnitudes=1),
        )
        optimizer.optimize()
        improved = evaluator.evaluate(optimizer.tree, training=False).score
        assert improved > baseline
        assert optimizer.state.improvements >= 1

    def test_splitting_grows_the_rule_table(self):
        evaluator = Evaluator(tiny_range(), settings=tiny_settings(num_specimens=1, sim_duration=2.0))
        optimizer = RemyOptimizer(
            evaluator,
            settings=OptimizerSettings(
                epochs_per_split=1, max_epochs=2, max_evaluations=200, candidate_magnitudes=1
            ),
        )
        optimizer.optimize()
        assert len(optimizer.tree) >= 8
        assert optimizer.state.splits >= 1

    def test_budget_is_respected(self):
        evaluator = Evaluator(tiny_range(), settings=tiny_settings(num_specimens=1, sim_duration=1.0))
        optimizer = RemyOptimizer(
            evaluator,
            settings=OptimizerSettings(max_epochs=50, max_evaluations=10, candidate_magnitudes=1),
        )
        optimizer.optimize()
        assert optimizer.state.evaluations_used <= 11

    def test_progress_callback_invoked(self):
        messages = []
        evaluator = Evaluator(tiny_range(), settings=tiny_settings(num_specimens=1, sim_duration=1.0))
        optimizer = RemyOptimizer(
            evaluator,
            settings=OptimizerSettings(max_epochs=1, max_evaluations=15, candidate_magnitudes=1),
            progress=lambda msg, state: messages.append(msg),
        )
        optimizer.optimize()
        assert messages

    def test_design_remycc_wrapper(self):
        tree, state = design_remycc(
            tiny_range(),
            Objective.proportional(1.0),
            evaluator_settings=tiny_settings(num_specimens=1, sim_duration=1.5),
            optimizer_settings=OptimizerSettings(
                max_epochs=1, max_evaluations=10, candidate_magnitudes=1
            ),
            name="test-cc",
        )
        assert tree.name == "test-cc"
        assert state.evaluations_used > 0
        assert state.score_history
