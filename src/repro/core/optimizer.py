"""Remy's automated design procedure: the greedy rule-table search of §4.3.

The optimizer repeats the following loop:

1. Mark every rule with the current epoch.
2. Evaluate the current RemyCC and find the most-used rule in this epoch.
3. Improve that rule's action until no candidate in its geometric
   neighbourhood beats it (candidates are evaluated on the same specimen
   networks and random seeds, so comparisons are low-variance), then retire
   the rule from this epoch.
4. When no rules remain in the epoch, increment the global epoch.  Every
   ``K`` epochs, continue to step 5; otherwise return to step 1.
5. Subdivide the most-used rule at the median memory value that triggered it,
   producing eight children with the same action, then return to step 1.

The result is an octree of memory regions whose granularity is finest where
the memory space is most used.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.core.action import Action
from repro.core.evaluator import EvaluationResult, Evaluator, specimen_seed
from repro.core.serialization import (
    save_json_atomic,
    whisker_tree_from_dict,
    whisker_tree_to_dict,
)
from repro.core.whisker import Whisker
from repro.core.whisker_tree import WhiskerTree

logger = logging.getLogger(__name__)

ProgressCallback = Callable[[str, "OptimizerState"], None]

#: The version of a designed table's ``design`` block.
CHECKPOINT_FORMAT_VERSION = 4
#: The search stops splitting rules at this many.
MAX_RULES = 256


def design_inputs(evaluator: Evaluator) -> dict[str, Any]:
    """What a design run scores against, as JSON: every evaluator setting
    under its own name, the objective, the drawn specimens and each one's
    packet-schedule seed.  A designed table's ``design`` block records it
    beside ``_DESIGN_RECORD``."""
    settings = evaluator.settings
    return {
        **asdict(settings),
        "objective": asdict(evaluator.objective),
        "specimens": [asdict(specimen) for specimen in evaluator.specimens],
        "seed_schedule": [
            specimen_seed(settings.seed, index) for index in range(settings.num_specimens)
        ],
    }


#: The ``design`` block's keys that are not :func:`design_inputs`.
_DESIGN_RECORD = ("format_version", "range", "search", "state")


@dataclass
class OptimizerSettings:
    """Search budget and neighbourhood shape.

    ``epochs_per_split`` is the paper's ``K`` (default 4).  The evaluation
    budget bounds the total number of specimen-set evaluations, since each is
    a full set of packet-level simulations.
    """

    epochs_per_split: int = 4
    candidate_magnitudes: int = 1
    max_epochs: int = 8
    max_evaluations: int = 400
    improvement_threshold: float = 1e-6

    def __post_init__(self) -> None:
        if self.epochs_per_split <= 0:
            raise ValueError("epochs_per_split must be positive")
        if self.candidate_magnitudes < 1:
            raise ValueError("candidate_magnitudes must be at least 1")
        if self.max_epochs <= 0 or self.max_evaluations <= 0:
            raise ValueError("budgets must be positive")
        if not (math.isfinite(self.improvement_threshold) and self.improvement_threshold >= 0):
            # Negative accepts worse actions; NaN accepts none.
            raise ValueError("improvement_threshold must be finite and non-negative")


@dataclass
class OptimizerState:
    """Progress bookkeeping exposed to callers and progress callbacks."""

    global_epoch: int = 0
    evaluations_used: int = 0
    improvements: int = 0
    splits: int = 0
    best_score: float = float("-inf")
    score_history: list[float] = field(default_factory=list)
    #: Simulations, over all evaluations so far, that sealed a drowned
    #: bottleneck (harmless: scores are exact) or ran out of
    #: ``max_events_per_sim`` (not harmless: the score covers a prefix).
    sealed_simulations: int = 0
    truncated_simulations: int = 0
    #: Evaluations, of ``evaluations_used``, whose result the design memo
    #: already held: charged and recorded like any other, not re-simulated.
    #: A resumed run starts with an empty memo, so this count depends on
    #: where the run resumed; ``score_history`` does not.
    remembered_evaluations: int = 0


class RemyOptimizer:
    """Greedy whisker-tree search (the Remy design phase)."""

    def __init__(
        self,
        evaluator: Evaluator,
        tree: Optional[WhiskerTree] = None,
        settings: Optional[OptimizerSettings] = None,
        progress: Optional[ProgressCallback] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
    ):
        self.evaluator = evaluator
        self.tree = tree if tree is not None else WhiskerTree()
        self.settings = settings if settings is not None else OptimizerSettings()
        self.progress = progress
        self.state = OptimizerState()
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        #: The design memo: every rule table scored since the last split,
        #: keyed by its rules' actions in depth-first order.
        self._memo: dict[tuple[Action, ...], EvaluationResult] = {}

    # ------------------------------------------------------------------ helpers
    def _notify(self, message: str) -> None:
        logger.debug("%s (epoch=%d evals=%d)", message, self.state.global_epoch, self.state.evaluations_used)
        if self.progress is not None:
            self.progress(message, self.state)

    def _budget_exhausted(self) -> bool:
        return (
            self.state.evaluations_used >= self.settings.max_evaluations
            or self.state.global_epoch >= self.settings.max_epochs
        )

    def _record(self, result: EvaluationResult) -> None:
        """Charge one budget unit and fold ``result`` into the state."""
        state = self.state
        state.evaluations_used += 1
        if result.score > state.best_score:
            state.best_score = result.score
        state.score_history.append(result.score)
        state.sealed_simulations += result.sealed_simulations
        state.truncated_simulations += result.truncated_simulations
        if result.truncated_simulations:
            logger.warning(
                "evaluation %d scored %d of %d simulations truncated by "
                "max_events_per_sim=%s: its score %.4f covers only a prefix "
                "of those runs",
                state.evaluations_used,
                result.truncated_simulations,
                result.simulations,
                self.evaluator.settings.max_events_per_sim,
                result.score,
            )

    def _evaluate(self, training: bool = True) -> EvaluationResult:
        result = self.evaluator.evaluate(self.tree, training=training)
        self._record(result)
        return result

    def _candidate_trees(
        self, whisker_index: int, actions: list[Action]
    ) -> list[WhiskerTree]:
        """Statistics-free tree copies, each with one rule's action replaced.

        The shared tree is serialized once; only the per-candidate
        reconstruction and the one-action patch differ.
        """
        base = whisker_tree_to_dict(self.tree)
        trees = []
        for action in actions:
            candidate = whisker_tree_from_dict(base)
            candidate.whiskers()[whisker_index].action = action
            trees.append(candidate)
        return trees

    # ------------------------------------------------------------------ checkpoint
    def checkpoint_dict(self) -> dict[str, Any]:
        """The designed table as a JSON-able document, resumable as it stands.

        The rule table (structure, actions, epochs) with ``"origin":
        "designed"`` and a ``design`` block, which loading ignores: the
        format version, :func:`design_inputs`, the range, the search shape
        and the :class:`OptimizerState`.  Per-whisker usage statistics are
        deliberately *not* captured — every epoch begins with a training
        evaluation that replaces them (see :meth:`_run_epoch`) — which is
        exactly why the epoch boundary is a bit-identical resume point.
        """
        state = asdict(self.state)
        # JSON has no -inf; None marks "no evaluation recorded yet".
        if self.state.best_score == float("-inf"):
            state["best_score"] = None
        return {
            **whisker_tree_to_dict(self.tree),
            "origin": "designed",
            "design": {
                "format_version": CHECKPOINT_FORMAT_VERSION,
                **design_inputs(self.evaluator),
                "range": asdict(self.evaluator.config_range),
                "search": asdict(self.settings),
                "state": state,
            },
        }

    def save_checkpoint(
        self, path: Optional[Union[str, Path]] = None
    ) -> Optional[Path]:
        """Write the designed table (atomically), returning its path.

        Uses ``path``, falling back to the constructor's ``checkpoint_path``;
        with neither set this is a no-op returning ``None``, so the
        optimizer can call it unconditionally at every boundary.
        """
        target = Path(path) if path is not None else self.checkpoint_path
        if target is None:
            return None
        return save_json_atomic(self.checkpoint_dict(), target)

    @classmethod
    def resume_from_checkpoint(
        cls,
        path: Union[str, Path],
        evaluator: Evaluator,
        progress: Optional[ProgressCallback] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
    ) -> "RemyOptimizer":
        """Restore an optimizer from a table written by :meth:`save_checkpoint`.

        ``evaluator`` must be constructed with the same settings, objective
        and design range the checkpointed run used — the ``design`` block
        records them (the range as its drawn specimens) and the specimen
        seed schedule, and resume refuses a mismatch rather than silently
        continuing a *different* search.  The returned optimizer continues
        bit-identically: calling :meth:`optimize` produces the same final
        tree and score history as the uninterrupted run.  ``checkpoint_path``
        defaults to ``path`` so a resumed run keeps checkpointing in place.
        """
        path = Path(path)
        data = json.loads(path.read_text())
        design = data.get("design")
        if design is None:
            raise ValueError(
                f"{path} has no design block, so no design run wrote it; a "
                "rule table alone is loaded with repro.core.serialization.load_remycc"
            )
        version = design.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint format version {version}")
        current = design_inputs(evaluator)
        recorded = {key: value for key, value in design.items() if key not in _DESIGN_RECORD}
        if recorded != current:
            diffs = sorted(
                key
                for key in set(recorded) | set(current)
                if recorded.get(key) != current.get(key)
            )
            raise ValueError(
                "evaluator settings, objective, specimens or seed schedule "
                f"differ from the run that wrote {path} (fields: "
                f"{', '.join(diffs)}); resuming would continue a different "
                "search and break bit-identical continuation"
            )
        optimizer = cls(
            evaluator,
            tree=whisker_tree_from_dict(data),
            settings=OptimizerSettings(**design["search"]),
            progress=progress,
            checkpoint_path=checkpoint_path if checkpoint_path is not None else path,
        )
        state = dict(design["state"])
        if state.get("best_score") is None:
            state["best_score"] = float("-inf")
        optimizer.state = OptimizerState(**state)
        return optimizer

    # ------------------------------------------------------------------ search
    def optimize(self) -> WhiskerTree:
        """Run the greedy search until the budget is exhausted.

        With a ``checkpoint_path`` configured, a checkpoint is written after
        every epoch (and therefore after every split, which happens inside
        the epoch boundary) and once more when the search finishes — each
        one a point :meth:`resume_from_checkpoint` continues from
        bit-identically.
        """
        while not self._budget_exhausted():
            self._run_epoch()
            self.state.global_epoch += 1
            if self.state.global_epoch % self.settings.epochs_per_split == 0:
                self._split_most_used()
            self.save_checkpoint()
        self._notify("optimization finished")
        self.save_checkpoint()
        return self.tree

    def _run_epoch(self) -> None:
        """Steps 1-3: improve every used rule of the current epoch once.

        A single training evaluation computes the per-rule usage statistics
        for the whole epoch; successive most-used rules are then picked from
        those statistics.  (Re-simulating the specimen set once per improved
        rule just to recompute a baseline — as earlier revisions did — burns
        a full evaluation per rule without changing which rules get picked:
        an improved rule leaves the epoch, and the remaining counts already
        rank the rest.)
        """
        epoch = self.state.global_epoch
        self.tree.set_epoch(epoch)
        if self._budget_exhausted():
            return
        incumbent = self._evaluate(training=True)
        while not self._budget_exhausted():
            whisker = self.tree.most_used(epoch=epoch)
            if whisker is None:
                # No rule in this epoch remains used: the epoch is finished.
                break
            incumbent = self._improve_whisker(whisker, incumbent)
            whisker.epoch = epoch + 1
            self._notify(
                f"improved rule to score {incumbent.score:.4f} "
                f"(action {whisker.action.as_tuple()})"
            )

    def _improve_whisker(self, whisker: Whisker, incumbent: EvaluationResult) -> EvaluationResult:
        """Step 3: hill-climb the rule's action over its candidate neighbourhood.

        ``incumbent`` is the evaluation of the tree as it stands; the result
        of the tree as the climb leaves it is returned.  Each round scores
        the whole neighbourhood as one :meth:`Evaluator.evaluate_many` batch
        — the candidates are independent by construction (same specimens,
        same seeds), so a parallel backend runs them concurrently.

        The search remembers what it has scored (Remy's ``eval_cache_``) in
        one design memo keyed by the whole rule table — every rule's action,
        the candidate's in the climbed slot — and cleared by a split: a
        later climb, even in a later epoch, may revisit a table.  Only tables
        not yet in the memo are simulated; every candidate, in neighbour
        order, is still charged one evaluation and recorded — so budget,
        ``score_history`` and the chosen action are exactly those of a climb
        that re-simulates everything.
        """
        memo = self._memo
        whiskers = self.tree.whiskers()
        slot = next(i for i, w in enumerate(whiskers) if w is whisker)
        before = tuple(w.action for w in whiskers[:slot])
        after = tuple(w.action for w in whiskers[slot + 1 :])

        def table(action: Action) -> tuple[Action, ...]:
            return (*before, action, *after)

        memo[table(whisker.action)] = incumbent
        improved = True
        while improved and not self._budget_exhausted():
            improved = False
            remaining = self.settings.max_evaluations - self.state.evaluations_used
            candidates = list(
                whisker.action.neighbors(self.settings.candidate_magnitudes)
            )[:remaining]
            fresh = [a for a in dict.fromkeys(candidates) if table(a) not in memo]
            if fresh:
                trees = self._candidate_trees(slot, fresh)
                results = self.evaluator.evaluate_many(trees, training=False)
                memo.update(zip(map(table, fresh), results))
            self.state.remembered_evaluations += len(candidates) - len(fresh)
            best_action = whisker.action
            for candidate in candidates:
                result = memo[table(candidate)]
                self._record(result)
                if result.score > incumbent.score + self.settings.improvement_threshold:
                    incumbent = result
                    best_action = candidate
            if best_action != whisker.action:
                whisker.action = best_action
                self.state.improvements += 1
                improved = True
        return incumbent

    def _split_most_used(self) -> None:
        """Step 5: subdivide the most-used rule at its median trigger.

        The split itself is structural (cheap); it is performed even when the
        evaluation budget has just run out so that a budget-bounded run still
        produces the octree structure its epoch count implies.  No table of
        the old shape can come back, so the design memo is cleared.
        """
        if len(self.tree) >= MAX_RULES:
            return
        self._evaluate(training=True)
        whisker = self.tree.most_used()
        if whisker is None:
            return
        self.tree.split_whisker(whisker)
        self._memo.clear()
        self.state.splits += 1
        self._notify(f"split most-used rule; tree now has {len(self.tree)} rules")

