"""Tests for the Remy evaluator and the greedy optimizer (§4.3)."""

from dataclasses import replace

import pytest

from repro.core.action import Action
from repro.core.config import TABLES, ConfigRange, ParameterRange
from repro.core.evaluator import EvaluationResult, Evaluator, EvaluatorSettings
from repro.core.objective import Objective
from repro.core.optimizer import MAX_RULES, OptimizerSettings, RemyOptimizer
from repro.core.serialization import whisker_tree_from_dict, whisker_tree_to_dict
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.path import PathSpec
from repro.netsim.queue import DropTailQueue
from repro.runner import SerialBackend, whisker_tree_token


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


class CountingBackend(SerialBackend):
    jobs_submitted = 0
    batches = 0
    candidate_batches = 0

    def run_batch(self, jobs):
        self.jobs_submitted += len(jobs)
        self.batches += 1
        self.candidate_batches += not jobs[0].training
        return super().run_batch(jobs)


class TestEvaluator:
    def test_evaluation_populates_scores_and_counts(self):
        evaluator = Evaluator(tiny_range(), Objective.proportional(1.0), tiny_settings())
        tree = WhiskerTree()
        result = evaluator.evaluate(tree, training=True)
        assert result.simulations == 2
        assert len(result.specimen_scores) == 2
        assert any(result.specimen_scores)  # at least one sender produced a score
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

    def test_training_and_read_only_evaluations_score_equal(self):
        # The design memo is seeded with the epoch's training evaluation and
        # serves it where a read-only candidate evaluation would have run.
        evaluator = Evaluator(tiny_range(), settings=tiny_settings())
        tree = WhiskerTree()
        trained = evaluator.evaluate(tree, training=True)
        read_only = evaluator.evaluate(tree, training=False)
        assert trained == read_only

    def test_obviously_bad_action_scores_worse(self):
        evaluator = Evaluator(tiny_range(), Objective.proportional(1.0), tiny_settings())
        from repro.core.serialization import pretrained_remycc

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
        runs = []

        class Recording(SerialBackend):
            def run_batch(self, jobs):
                results = super().run_batch(jobs)
                runs.extend(results)
                return results

        evaluator = Evaluator(config, settings=tiny_settings(), backend=Recording())
        evaluator.evaluate(WhiskerTree(), training=False)
        assert len(runs) == 2
        assert all(run.result.mean_throughput_mbps() > 0 for run in runs)

    def test_training_evaluations_are_never_deduplicated(self):
        # A training pass writes usage statistics onto each tree it was
        # given, so equal tables must still be simulated separately.
        evaluator = Evaluator(tiny_range(), settings=tiny_settings(sim_duration=0.5))
        twins = [WhiskerTree(), WhiskerTree()]
        evaluator.evaluate_many(twins, training=True)
        assert twins[0].total_use_count() == twins[1].total_use_count() > 0

    @pytest.mark.parametrize("count", [0, -2])
    def test_an_evaluation_needs_a_specimen(self, count):
        # No specimen would score every table 0.0 from no simulation.
        with pytest.raises(ValueError, match="num_specimens"):
            EvaluatorSettings(num_specimens=count)

    def test_the_range_buffer_sizes_every_specimen_queue(self):
        # It used to be copied into every specimen and then ignored: the
        # evaluator built the unlimited queue whatever the range said.
        evaluator = Evaluator(replace(tiny_range(), buffer_packets=50), settings=tiny_settings())
        for specimen in evaluator.specimens:
            queue = evaluator._spec_for(specimen).forward[0].make_queue()
            assert type(queue) is DropTailQueue and queue.capacity_packets == 50

    # One case per distinct range, named for what the range is; the three
    # delta tables share general_purpose_range.
    @pytest.mark.parametrize(
        "name",
        ["delta1", "1x", "10x", "datacenter", "coexist"],
        ids=["general_purpose", "exact_link", "tenfold_link", "datacenter", "wide_rtt"],
    )
    def test_every_published_range_keeps_its_unlimited_queue(self, name):
        # The spec every specimen of a published range was simulated on
        # before the queue came from the range: §5.1's unlimited FIFO.
        evaluator = Evaluator(TABLES[name][0], settings=EvaluatorSettings(num_specimens=4))
        for specimen in evaluator.specimens:
            assert evaluator._spec_for(specimen) == PathSpec.dumbbell(
                rate_bps=specimen.link_speed_bps,
                rtt=specimen.rtt_seconds,
                n_flows=specimen.n_senders,
                queue="droptail",
                buffer_packets=None,
            )


class TestOptimizer:
    def test_settings_validation(self):
        with pytest.raises(ValueError):
            OptimizerSettings(epochs_per_split=0)
        with pytest.raises(ValueError):
            OptimizerSettings(candidate_magnitudes=0)
        with pytest.raises(ValueError):
            OptimizerSettings(max_epochs=0)
        # A negative threshold accepts worse actions; NaN accepts none.
        for threshold in (-1.0, -1e-9, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="improvement_threshold"):
                OptimizerSettings(improvement_threshold=threshold)
        assert OptimizerSettings(improvement_threshold=0.0).improvement_threshold == 0.0

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


def memo_free_run(evaluator, tree, settings):
    """The design loop (§4.3 steps 1-5) with no memory at all.

    Written against the paper, not against ``RemyOptimizer``: every epoch
    starts from a training evaluation, every neighbour of every incumbent is
    simulated by its own ``Evaluator.evaluate`` call on the tree itself
    (duplicates, revisits and tables an earlier epoch scored included), and
    every ``epochs_per_split`` epochs the most-used rule of a fresh training
    evaluation is split.  Same threshold, same budget rule (a neighbourhood
    is cut to what the budget still allows; the split's evaluation is charged
    even past it).  Returns the score history and the accepted actions.
    """
    budget = settings.max_evaluations
    history, accepted = [], []

    def evaluate(training):
        history.append(evaluator.evaluate(tree, training=training).score)
        return history[-1]

    epoch = 0
    while len(history) < budget and epoch < settings.max_epochs:
        tree.set_epoch(epoch)
        best = evaluate(training=True)
        while len(history) < budget:
            whisker = tree.most_used(epoch=epoch)
            if whisker is None:
                break
            improved = True
            while improved and len(history) < budget:
                improved = False
                centre = winner = whisker.action
                neighbours = list(centre.neighbors(settings.candidate_magnitudes))
                for candidate in neighbours[: budget - len(history)]:
                    whisker.action = candidate
                    score = evaluate(training=False)
                    if score > best + settings.improvement_threshold:
                        best, winner = score, candidate
                whisker.action = winner
                if winner != centre:
                    accepted.append(winner)
                    improved = True
            whisker.epoch = epoch + 1
        epoch += 1
        if epoch % settings.epochs_per_split == 0 and len(tree) < MAX_RULES:
            evaluate(training=True)
            tree.split_whisker(tree.most_used())
    return history, accepted


def climb_evaluator(backend=None):
    """tests/test_optimizer_checkpoint.py's run: at threshold 0.05 its first
    neighbourhood improves and its second does not."""
    return Evaluator(
        tiny_range(),
        Objective.proportional(1.0),
        EvaluatorSettings(num_specimens=2, sim_duration=1.0, seed=3),
        backend=backend,
    )


def split_tree():
    tree = WhiskerTree()
    climb_evaluator().evaluate(tree, training=True)
    tree.split_whisker(tree.most_used())
    return tree


class TestClimbMemo:
    """Between two splits no rule table is simulated twice — and nothing
    else about the search changes."""

    #: name -> (start tree, settings overrides, expected (evaluations_used,
    #: remembered_evaluations, improvements, candidate batches)).  Jobs
    #: submitted are (evaluations_used - remembered_evaluations) x 2 specimens.
    CASES = {
        # Later epochs climb the one rule again over a table nothing has
        # changed since: 76 jobs, where a memo that dies with each climb
        # submits 180.
        "three-epochs": (
            WhiskerTree,
            dict(max_epochs=3, max_evaluations=300),
            (107, 69, 1, 2),
        ),
        # A split every second epoch clears the memo: 394 jobs, not 758.
        "split-clears-the-memo": (
            WhiskerTree,
            dict(max_epochs=4, max_evaluations=400, epochs_per_split=2),
            (396, 199, 1, 8),
        ),
        # Two whole neighbourhoods; a step on one axis leaves 17 of the
        # second already scored (the least a step can leave is 7 of 26), and
        # nothing there improves.
        "default-start": (WhiskerTree, dict(max_evaluations=120), (53, 17, 1, 2)),
        # Clamping the pacing interval folds 25 of the first 124.
        "two-magnitudes": (
            WhiskerTree,
            dict(max_evaluations=250, candidate_magnitudes=2),
            (250, 90, 2, 2),
        ),
        # The budget cuts the second neighbourhood after 10 candidates ...
        "cut-mid-list": (WhiskerTree, dict(max_evaluations=37), (37, 7, 1, 2)),
        # ... or leaves one candidate, already scored: charged, no batch.
        "cut-to-a-remembered-candidate": (
            WhiskerTree,
            dict(max_evaluations=28),
            (28, 1, 1, 1),
        ),
        # Six rules climbed in one epoch: every climb after the first starts
        # from the previous climb's winning result, not the epoch baseline.
        "eight-rules": (split_tree, dict(max_evaluations=400), (209, 28, 2, 8)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_memo_free_reference_climb_agrees(self, case):
        make_tree, overrides, expected = self.CASES[case]
        settings = OptimizerSettings(
            **{"max_epochs": 1, "improvement_threshold": 0.05, **overrides}
        )

        reference_backend = CountingBackend()
        reference_tree = make_tree()
        history, accepted = memo_free_run(
            climb_evaluator(reference_backend), reference_tree, settings
        )

        backend = CountingBackend()
        evaluator = climb_evaluator(backend)
        optimizer = RemyOptimizer(evaluator, tree=make_tree(), settings=settings)
        optimizer.optimize()
        state = optimizer.state

        assert state.score_history == history  # bit for bit, no tolerance
        assert state.improvements == len(accepted)
        assert whisker_tree_token(optimizer.tree) == whisker_tree_token(reference_tree)
        assert [w.action for w in optimizer.tree.whiskers()] == [
            w.action for w in reference_tree.whiskers()
        ]
        assert (
            state.evaluations_used,
            state.remembered_evaluations,
            state.improvements,
            backend.candidate_batches,
        ) == expected

        # What is charged is every candidate; what is simulated is the rest.
        simulated = state.evaluations_used - state.remembered_evaluations
        assert evaluator.evaluations == simulated
        assert backend.jobs_submitted == simulated * evaluator.settings.num_specimens
        assert backend.jobs_submitted < reference_backend.jobs_submitted
        assert (
            reference_backend.jobs_submitted
            == state.evaluations_used * evaluator.settings.num_specimens
        )

    def test_the_memo_keeps_each_tables_evaluation(self):
        optimizer = RemyOptimizer(
            climb_evaluator(),
            tree=split_tree(),
            settings=OptimizerSettings(
                max_epochs=1, max_evaluations=60, improvement_threshold=0.05
            ),
        )
        optimizer.optimize()
        memo = optimizer._memo
        assert len(memo) > 27  # more than one neighbourhood
        tables = []
        for actions in memo:
            table = whisker_tree_from_dict(whisker_tree_to_dict(optimizer.tree))
            for whisker, action in zip(table.whiskers(), actions, strict=True):
                whisker.action = action
            tables.append(table)
        fresh = climb_evaluator().evaluate_many(tables, training=False)
        for remembered, evaluation in zip(memo.values(), fresh):
            assert isinstance(remembered, EvaluationResult)
            assert remembered == evaluation  # specimen_scores among its fields

    def test_a_climb_that_improves_nothing_submits_one_batch(self):
        backend = CountingBackend()
        optimizer = RemyOptimizer(
            climb_evaluator(backend),
            settings=OptimizerSettings(
                max_epochs=1, max_evaluations=120, improvement_threshold=1e9
            ),
        )
        optimizer.optimize()
        assert optimizer.state.improvements == 0
        assert optimizer.state.evaluations_used == 1 + 26
        assert optimizer.state.remembered_evaluations == 0
        assert backend.batches == 2  # the epoch's training evaluation + one

    def test_duplicate_candidates_are_simulated_once(self):
        # At the default action with two magnitudes, clamping the pacing
        # interval to its floor folds several of the 124 neighbours together.
        candidates = list(Action.default().neighbors(2))
        assert len(set(candidates)) < len(candidates)
        settings = tiny_settings(sim_duration=0.5)

        backend = CountingBackend()
        evaluator = Evaluator(tiny_range(), settings=settings, backend=backend)
        optimizer = RemyOptimizer(
            evaluator,
            settings=OptimizerSettings(
                max_epochs=1,
                max_evaluations=1 + len(candidates),
                candidate_magnitudes=2,
                improvement_threshold=1e9,
            ),
        )
        optimizer.optimize()
        submitted = backend.jobs_submitted - settings.num_specimens  # the baseline
        assert submitted == len(set(candidates)) * settings.num_specimens
        assert submitted < len(candidates) * settings.num_specimens
        # Budget accounting is per candidate, and every candidate — first
        # occurrence or duplicate — gets the score of its own simulation.
        scores = optimizer.state.score_history[1:]
        assert optimizer.state.evaluations_used - 1 == len(scores) == len(candidates)
        assert optimizer.state.remembered_evaluations == len(candidates) - len(set(candidates))
        reference = Evaluator(tiny_range(), settings=settings)
        for action, score in zip(candidates, scores):
            alone = reference.evaluate(WhiskerTree(default_action=action), training=False)
            assert score == alone.score
