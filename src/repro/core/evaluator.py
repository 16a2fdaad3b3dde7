"""Evaluation of a candidate RemyCC over the network model (§4.3, inner loop).

A single evaluation step draws a set of network specimens from the design
range, simulates the candidate rule table at every sender of every specimen
for a fixed number of seconds, and totals the objective function over all
senders.  The specimen set and every random seed are derived
deterministically from the evaluator's seed, so different candidate actions
are compared on exactly the same networks (the variance-reduction trick the
paper relies on).

The specimen simulations of one evaluation are independent, so the evaluator
submits them as one batch to an :class:`~repro.runner.ExecutionBackend`; the
default :class:`~repro.runner.SerialBackend` runs them in-process, while a
:class:`~repro.runner.ProcessPoolBackend` fans them out across cores the way
the paper's design runs did.  :meth:`Evaluator.evaluate_many` extends the
same batching across several candidate rule tables at once (the optimizer
scores a whole action neighbourhood per batch).

A training evaluation's rule-usage statistics take one path on every backend:
each job returns its own per-rule summary and the evaluator *sets* the tree's
statistics to their fold, in specimen order — so scores, use counts and split
points are a pure function of the ordered jobs, whatever ran them.

An evaluation's outcome is one frozen :class:`EvaluationResult`: the score,
the per-specimen scores it is the mean of, and the sealed and truncated
simulation counts.  It holds nothing per flow, so the optimizer's design memo
keeps it as it is.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import ConfigRange, NetConfig
from repro.core.objective import Objective
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.path import PathSpec
from repro.netsim.simulator import SimulationResult
from repro.runner import ExecutionBackend, SerialBackend, SimJob, SimJobResult, mix_seed
from repro.traffic.onoff import ByteFlowWorkload, TimedFlowWorkload


def specimen_seed(evaluator_seed: int, specimen_index: int) -> int:
    """Simulation seed for one specimen of one evaluator.

    Uses a proper seed mix so distinct ``(evaluator seed, specimen index)``
    pairs never share a packet schedule.  (The previous derivation,
    ``seed * 7919 + index``, collided: seed=1/index=0 reused the schedule of
    seed=0/index=7919.)  The specimen index — never the candidate action —
    determines the seed, so every candidate sees the same packet-level
    randomness.
    """
    return mix_seed("remy-specimen", evaluator_seed, specimen_index)


@dataclass(frozen=True)
class EvaluationResult:
    """One evaluation of one rule table over the specimen set: the objective
    per specimen and its mean, which is all the search reads and what the
    design memo keeps."""

    score: float
    #: Per specimen, in specimen order: the mean objective over its scored senders.
    specimen_scores: tuple[float, ...]
    #: How many of those simulations sealed a drowned bottleneck (their
    #: send-side counters stop at the seal; the score is unaffected) and how
    #: many ran out of ``max_events_per_sim`` (the score covers a prefix).
    sealed_simulations: int = 0
    truncated_simulations: int = 0

    @property
    def simulations(self) -> int:
        return len(self.specimen_scores)


@dataclass
class EvaluatorSettings:
    """Knobs controlling how expensive one evaluation is.

    The paper draws 16+ specimens and simulates each for 100 seconds; with a
    pure-Python packet simulator the defaults here are deliberately smaller.
    """

    num_specimens: int = 4
    sim_duration: float = 8.0
    seed: int = 0
    max_events_per_sim: Optional[int] = 2_000_000

    def __post_init__(self) -> None:
        if self.num_specimens < 1:  # or every table scores 0.0, simulating nothing
            raise ValueError(f"num_specimens must be at least 1, got {self.num_specimens}")


class Evaluator:
    """Scores whisker trees against a design range and objective.

    It remembers nothing: the design memo is the optimizer's.
    """

    def __init__(
        self,
        config_range: ConfigRange,
        objective: Optional[Objective] = None,
        settings: Optional[EvaluatorSettings] = None,
        backend: Optional[ExecutionBackend] = None,
    ):
        self.config_range = config_range
        self.objective = objective if objective is not None else Objective.proportional(1.0)
        self.settings = settings if settings is not None else EvaluatorSettings()
        self.backend = backend if backend is not None else SerialBackend()
        self.specimens = config_range.specimens(
            self.settings.num_specimens, seed=self.settings.seed
        )
        #: Rule tables actually simulated — not the optimizer's budget count,
        #: which also charges remembered candidates.
        self.evaluations = 0

    # -- specimen construction ---------------------------------------------------
    def _spec_for(self, specimen: NetConfig) -> PathSpec:
        # The specimen's own DropTail buffer: none is the unlimited FIFO of §5.1.
        return PathSpec.dumbbell(
            n_flows=specimen.n_senders,
            rtt=specimen.rtt_seconds,
            rate_bps=specimen.link_speed_bps,
            buffer_packets=specimen.buffer_packets,
        )

    def _specimen_workload(self, specimen: NetConfig):
        if specimen.mean_on_bytes is not None:
            return ByteFlowWorkload.exponential(
                mean_flow_bytes=specimen.mean_on_bytes,
                mean_off_seconds=specimen.mean_off_seconds,
            )
        return TimedFlowWorkload.exponential(
            mean_on_seconds=specimen.mean_on_seconds,
            mean_off_seconds=specimen.mean_off_seconds,
        )

    def _job_for(
        self, tree: WhiskerTree, specimen: NetConfig, index: int, training: bool, job_id: int
    ) -> SimJob:
        spec = self._spec_for(specimen)
        return SimJob(
            job_id=job_id,
            spec=spec,
            duration=self.settings.sim_duration,
            seed=specimen_seed(self.settings.seed, index),
            workloads=tuple(self._specimen_workload(specimen) for _ in range(specimen.n_senders)),
            tree=tree,
            training=training,
            max_events=self.settings.max_events_per_sim,
        )

    # -- evaluation ---------------------------------------------------------------
    def evaluate(self, tree: WhiskerTree, training: bool = True) -> EvaluationResult:
        """Simulate ``tree`` on every specimen and total the objective.

        ``training=True`` replaces the tree's per-whisker use counts and
        triggering-memory samples with this evaluation's (required by the
        optimizer's most-used-rule and split steps); pass ``False`` for a
        read-only scoring pass.
        """
        return self.evaluate_many([tree], training=training)[0]

    def evaluate_many(
        self, trees: Sequence[WhiskerTree], training: bool = True
    ) -> list[EvaluationResult]:
        """Evaluate several rule tables as one batch of simulations.

        Candidate tables are independent by construction — they run over the
        same specimens with the same seeds — so all ``len(trees) ×
        num_specimens`` simulations are submitted together, letting a
        parallel backend keep every worker busy across the whole candidate
        neighbourhood rather than one evaluation at a time.  Jobs are
        ordered tree-major, which is also what makes
        :class:`~repro.runner.ProcessPoolBackend`'s chunked submission
        cheap: consecutive jobs share a rule table, so each chunk pickles
        that table once rather than once per job.

        Every table given is simulated, equal content or not: the evaluator
        folds nothing.  Not scoring the same candidate twice is the caller's
        business (``RemyOptimizer`` keeps a design memo).
        """
        trees = list(trees)
        if not trees:
            return []
        self.evaluations += len(trees)
        jobs = []
        for tree in trees:
            for index, specimen in enumerate(self.specimens):
                jobs.append(
                    self._job_for(tree, specimen, index, training, job_id=len(jobs))
                )
        job_results = self.backend.run_batch(jobs)

        results = []
        per_tree = len(self.specimens)
        for tree_index, tree in enumerate(trees):
            batch = job_results[tree_index * per_tree : (tree_index + 1) * per_tree]
            if training:
                self._set_usage(tree, batch)
            results.append(self._score_tree(batch))
        return results

    @staticmethod
    def _set_usage(tree: WhiskerTree, batch: Sequence[SimJobResult]) -> None:
        """Set ``tree``'s statistics to the fold of its jobs' usage summaries."""
        whiskers = tree.whiskers()
        for job_result in batch:
            # An ExecutionBackend returns every training job's usage summary.
            summary = job_result.whisker_stats or []
            if len(summary) != len(whiskers):
                raise ValueError(
                    f"training job {job_result.job_id} returned usage for "
                    f"{len(summary)} rules for a tree of {len(whiskers)} rules"
                )
        for index, whisker in enumerate(whiskers):
            whisker.set_usage([job_result.whisker_stats[index] for job_result in batch])

    def _score_tree(self, batch) -> EvaluationResult:
        specimen_scores: list[float] = []
        for specimen, job_result in zip(self.specimens, batch):
            per_flow = self._score_specimen(job_result.result, specimen)
            specimen_scores.append(statistics.fmean(per_flow) if per_flow else 0.0)
        return EvaluationResult(
            score=statistics.fmean(specimen_scores),
            specimen_scores=tuple(specimen_scores),
            sealed_simulations=sum(
                jr.result.sealed_at is not None for jr in batch
            ),
            truncated_simulations=sum(jr.result.truncated for jr in batch),
        )

    def _score_specimen(self, result: SimulationResult, specimen: NetConfig) -> list[float]:
        """The objective of every sender that has a score, in flow order."""
        fair_share = specimen.link_speed_bps / specimen.n_senders
        scores = []
        for stats in result.flow_stats:
            score = self.objective.score_stats(stats, fair_share, specimen.rtt_seconds)
            if score is not None:
                scores.append(score)
        return scores
