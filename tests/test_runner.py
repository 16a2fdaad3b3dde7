"""Tests for the execution subsystem (repro.runner) and its evaluator wiring.

The two properties that matter:

* **determinism** — ``SerialBackend`` and ``ProcessPoolBackend`` must produce
  identical evaluation results (scores, per-whisker use counts *and* split
  points) for the same evaluator seed, so choosing a worker count is purely a
  wall-clock decision; and
* **seed hygiene** — distinct ``(evaluator seed, specimen index)`` pairs must
  never share a packet schedule (regression test for the old
  ``seed * 7919 + index`` derivation).
"""

import pytest

from conftest import cell_job
from repro.core.config import ConfigRange, ParameterRange, general_purpose_range
from repro.core.evaluator import Evaluator, EvaluatorSettings, specimen_seed
from repro.core.objective import Objective
from repro.core.optimizer import OptimizerSettings, RemyOptimizer
from repro.core.whisker import SAMPLE_RESERVOIR, WhiskerUsage
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.path import PathSpec
from repro.netsim.simulator import Simulation
from repro.protocols.newreno import NewReno
from repro.runner import (
    ProcessPoolBackend,
    SerialBackend,
    SimJob,
    backend_from_spec,
    mix_seed,
    prepare_jobs,
    run_sim_job,
    whisker_tree_token,
)
from repro.scenarios import ProtocolSpec

NEWRENO = (ProtocolSpec("newreno"),)


def tiny_range() -> ConfigRange:
    return ConfigRange(
        link_speed_bps=ParameterRange.exact(4e6),
        rtt_seconds=ParameterRange.exact(0.08),
        n_senders=ParameterRange.exact(2),
        mean_on_seconds=ParameterRange.exact(2.0),
        mean_off_seconds=ParameterRange.exact(1.0),
    )


def tiny_settings(num_specimens=2, sim_duration=2.0, seed=1) -> EvaluatorSettings:
    return EvaluatorSettings(
        num_specimens=num_specimens, sim_duration=sim_duration, seed=seed
    )


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------
class TestSeedDerivation:
    def test_old_colliding_pairs_are_now_distinct(self):
        # The old derivation (seed * 7919 + index) made seed=1/index=0 reuse
        # the packet schedule of seed=0/index=7919.
        assert specimen_seed(1, 0) != specimen_seed(0, 7919)
        assert specimen_seed(2, 0) != specimen_seed(0, 2 * 7919)
        assert specimen_seed(2, 100) != specimen_seed(1, 7919 + 100)

    def test_specimen_seeds_unique_over_a_grid(self):
        seeds = {
            specimen_seed(evaluator_seed, index)
            for evaluator_seed in range(20)
            for index in range(100)
        }
        assert len(seeds) == 20 * 100

    def test_mix_seed_deterministic_and_component_sensitive(self):
        assert mix_seed("a", 1, 2) == mix_seed("a", 1, 2)
        assert mix_seed("a", 1, 2) != mix_seed("a", 2, 1)
        assert mix_seed("a", 12) != mix_seed("a", 1, 2)
        assert 0 <= mix_seed("x") < 2**32

    def test_specimen_seed_independent_of_tree(self):
        # The specimen index, not the candidate, determines the seed.
        assert specimen_seed(3, 1) == specimen_seed(3, 1)


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------
class TestSimJob:
    def _spec(self, n_flows=2) -> PathSpec:
        return PathSpec.dumbbell(
            rate_bps=4e6, rtt=0.08, n_flows=n_flows, queue="droptail",
            buffer_packets=100,
        )

    def test_requires_exactly_one_protocol_source(self):
        with pytest.raises(ValueError):
            SimJob(job_id=0, spec=self._spec(), duration=1.0, seed=0)
        with pytest.raises(ValueError):
            SimJob(
                job_id=0,
                spec=self._spec(),
                duration=1.0,
                seed=0,
                tree=WhiskerTree(),
                protocols=NEWRENO,
            )

    def test_workload_count_validated(self):
        from repro.netsim.sender import AlwaysOnWorkload

        with pytest.raises(ValueError):
            SimJob(
                job_id=0,
                spec=self._spec(n_flows=2),
                duration=1.0,
                seed=0,
                workloads=(AlwaysOnWorkload(),),
                protocols=NEWRENO,
            )

    def test_run_sim_job_matches_direct_simulation(self):
        spec = self._spec()
        job = SimJob(job_id=7, spec=spec, duration=3.0, seed=5, protocols=NEWRENO)
        job_result = run_sim_job(job)
        direct = Simulation(
            spec, [NewReno() for _ in range(2)], None, duration=3.0, seed=5
        ).run()
        assert job_result.job_id == 7
        assert job_result.whisker_stats is None
        assert job_result.result.throughputs_mbps() == direct.throughputs_mbps()
        assert job_result.result.queue_delays_ms() == direct.queue_delays_ms()

    def test_tree_token_ignores_name_and_epochs(self):
        one = WhiskerTree(name="alpha")
        other = WhiskerTree(name="beta")
        other.set_epoch(41)
        assert whisker_tree_token(one) == whisker_tree_token(other)


# ---------------------------------------------------------------------------
# Whisker statistics transport
# ---------------------------------------------------------------------------
class RewritingBackend(SerialBackend):
    """Runs every job for real, then lets the test rewrite its usage summary."""

    def __init__(self, rewrite):
        self.rewrite = rewrite

    def run_batch(self, jobs):
        results = super().run_batch(jobs)
        for index, job_result in enumerate(results):
            job_result.whisker_stats = self.rewrite(index, job_result.whisker_stats)
        return results


class TestWhiskerStatsMerge:
    def _evaluate(self, rewrite) -> WhiskerTree:
        evaluator = Evaluator(
            tiny_range(), settings=tiny_settings(sim_duration=0.5),
            backend=RewritingBackend(rewrite),
        )
        tree = WhiskerTree()
        evaluator.evaluate(tree, training=True)
        return tree

    def test_collect_matches_tree_state(self):
        tree = WhiskerTree()
        from repro.core.memory import Memory

        tree.use(Memory(1.0, 2.0, 3.0))
        tree.use(Memory(4.0, 5.0, 6.0))
        [usage] = tree.usage()
        assert usage.use_count == 2
        assert usage.samples == [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)]
        tree.reset_statistics()
        assert len(usage.samples) == 2  # a snapshot, not a view

    def test_merge_adds_use_counts_in_job_order(self):
        per_job = [
            [WhiskerUsage(3, 1, [(1.0, 1.0, 1.0)] * 3)],
            [WhiskerUsage(4, 1, [(2.0, 2.0, 2.0)] * 4)],
        ]
        [whisker] = self._evaluate(lambda index, _: per_job[index]).whiskers()
        assert whisker.use_count == 7
        assert whisker._samples == [(1.0, 1.0, 1.0)] * 3 + [(2.0, 2.0, 2.0)] * 4

    def test_merge_respects_sample_reservoir_cap(self):
        uses = SAMPLE_RESERVOIR + 10
        big = [WhiskerUsage(uses, 2, [(float(i), 0.0, 0.0) for i in range(uses // 2)])]
        [whisker] = self._evaluate(lambda index, _: big).whiskers()
        assert whisker.use_count == 2 * uses
        assert 2 * (uses // 4) == len(whisker._samples) < SAMPLE_RESERVOIR

    def test_merge_rejects_mismatched_rule_count(self):
        with pytest.raises(ValueError, match="job 1 returned usage for 2 rules"):
            self._evaluate(lambda index, stats: stats * (1 + index))

    def test_split_sample_spans_every_specimen_and_the_whole_of_each(self):
        # §4.3 step 5 splits "at the median memory value that triggered" the
        # rule: over the whole evaluation, not the tail of its last
        # simulation.
        per_job = []

        def record(index, stats):
            per_job.append(stats[0])
            return stats

        evaluator = Evaluator(
            tiny_range(), settings=tiny_settings(), backend=RewritingBackend(record)
        )
        tree = WhiskerTree()
        evaluator.evaluate(tree, training=True)
        [whisker] = tree.whiskers()
        first, last = per_job
        assert first.use_count > 0 and last.use_count > SAMPLE_RESERVOIR
        assert whisker.use_count == first.use_count + last.use_count
        merged = whisker.usage()
        assert len(merged.samples) < SAMPLE_RESERVOIR
        position = 0
        for job in per_job:
            step = merged.stride // job.stride
            share = merged.samples[position : position + job.use_count // merged.stride]
            position += len(share)
            assert share == job.samples[step - 1 :: step]
            # Early triggers of the job as well as late ones.
            assert job.samples.index(share[0]) < len(job.samples) // 2
            assert job.samples.index(share[-1]) > len(job.samples) // 2
        assert position == len(merged.samples)

    def test_second_training_evaluation_replaces_the_first(self):
        evaluator = Evaluator(tiny_range(), settings=tiny_settings())
        tree = WhiskerTree()
        evaluator.evaluate(tree, training=True)
        first = [(w.use_count, list(w._samples)) for w in tree.whiskers()]
        evaluator.evaluate(tree, training=True)
        assert [(w.use_count, list(w._samples)) for w in tree.whiskers()] == first


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------
class TestBackendConstruction:
    def test_backend_from_spec(self):
        assert isinstance(backend_from_spec("serial"), SerialBackend)
        with backend_from_spec("process:3") as backend:
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.max_workers == 3
        with pytest.raises(ValueError):
            backend_from_spec("gpu")
        with pytest.raises(ValueError):
            backend_from_spec("serial:2")

    def test_unknown_spec_error_names_every_family(self):
        # "thread" was a family once; it is now as unknown as any other.
        with pytest.raises(ValueError) as err:
            backend_from_spec("thread")
        message = str(err.value)
        assert "family 'thread' is not one of" in message
        for family in ("'serial'", "'process'"):
            assert family in message

    def test_process_pool_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(max_workers=0)

    def test_empty_batch(self):
        assert SerialBackend().run_batch([]) == []
        with ProcessPoolBackend(max_workers=1) as backend:
            assert backend.run_batch([]) == []


class TestScenarioJobs:
    """Jobs that replay a registered cell: its own (possibly mixed) protocols."""

    def test_from_scenario_matches_direct_cell_run(self):
        from repro.scenarios import get_scenario, simulation_fingerprint

        result = run_sim_job(cell_job("fig4-dumbbell8"))
        assert simulation_fingerprint(result.result) == simulation_fingerprint(
            get_scenario("fig4-dumbbell8").run()
        )

    def test_mixed_protocol_cell_crosses_the_process_boundary(self):
        from repro.scenarios import simulation_fingerprint

        # competing-remy-cubic mixes a RemyCC and Cubic — inexpressible as a
        # single tree; the job ships one ProtocolSpec per flow instead.
        job = cell_job("competing-remy-cubic")
        [serial] = SerialBackend().run_batch([job])
        with ProcessPoolBackend(max_workers=2) as backend:
            [pooled] = backend.run_batch([job])
        assert simulation_fingerprint(pooled.result) == simulation_fingerprint(
            serial.result
        )

    def test_from_scenario_accepts_overrides(self):
        # The job's duration and seed run, not the cell's own.
        from repro.scenarios import get_scenario, simulation_fingerprint

        result = run_sim_job(cell_job("fig4-dumbbell8", duration=1.0, seed=9))
        assert simulation_fingerprint(result.result) == simulation_fingerprint(
            get_scenario("fig4-dumbbell8").run(duration=1.0, seed=9)
        )

    def test_runtime_registered_cell_survives_the_pool(self):
        # A cell registered in THIS process does not exist in a fresh
        # worker's registry; run_cells resolves the name here, and its jobs
        # carry the topology and the protocol specs, never the name.
        from dataclasses import replace
        from repro.experiments.base import Grid, run_cells
        from repro.scenarios import (
            get_scenario,
            register_scenario,
            simulation_fingerprint,
            unregister_scenario,
        )

        base = get_scenario("competing-remy-cubic")
        custom = replace(base, name="runtime-only-cell", duration=1.0, smoke=False)
        register_scenario(custom)
        try:
            [[[[serial]]]] = run_cells(Grid(["runtime-only-cell"], n_runs=1))
            with ProcessPoolBackend(max_workers=1) as backend:
                [[[[pooled]]]] = run_cells(Grid(["runtime-only-cell"], n_runs=1), backend=backend)
        finally:
            unregister_scenario("runtime-only-cell")
        assert simulation_fingerprint(pooled) == simulation_fingerprint(serial)


class TestUnknownNamesFailFast:
    """A protocol is a name, checked when it is written down, not in a worker."""

    def test_unknown_protocol_name_raises_clear_error(self):
        with pytest.raises(ValueError, match="'nope'.*newreno"):
            ProtocolSpec("nope")

    def test_unknown_table_name_fails_before_the_pool(self):
        from repro.experiments.base import Grid, remycc_scheme, run_cells

        with ProcessPoolBackend(max_workers=1) as backend:
            with pytest.raises(ValueError, match="'delta2'.*delta1"):
                run_cells(Grid(["fig4-dumbbell8"], [remycc_scheme("delta2")], n_runs=1),
                          backend=backend)
            # No worker was ever spawned.
            assert backend._executor is None


class TestBackendDeterminism:
    """Serial and process-pool execution must be indistinguishable."""

    def _evaluate(self, backend, training, settings=None):
        evaluator = Evaluator(
            tiny_range(),
            Objective.proportional(1.0),
            settings if settings is not None else tiny_settings(),
            backend=backend,
        )
        tree = WhiskerTree()
        result = evaluator.evaluate(tree, training=training)
        usage = [(w.use_count, w.median_trigger().as_tuple()) for w in tree.whiskers()]
        return result, usage

    def test_serial_and_process_results_identical(self):
        serial_result, serial_usage = self._evaluate(SerialBackend(), training=True)
        with ProcessPoolBackend(max_workers=2) as backend:
            pool_result, pool_usage = self._evaluate(backend, training=True)

        assert pool_result.score == serial_result.score
        assert pool_result.specimen_scores == serial_result.specimen_scores
        assert [
            (fs.specimen_index, fs.flow_id, fs.throughput_bps, fs.score)
            for fs in pool_result.flow_scores
        ] == [
            (fs.specimen_index, fs.flow_id, fs.throughput_bps, fs.score)
            for fs in serial_result.flow_scores
        ]
        assert pool_usage == serial_usage
        assert sum(count for count, _ in pool_usage) > 0

    def test_use_counts_identical_when_jobs_share_a_chunk(self):
        # A chunk is pickled whole, so jobs of one chunk share a single tree
        # object inside the worker.  With 16 specimens and 2 workers the
        # chunk size is 2; a stats snapshot that isn't reset per job would
        # include the chunk-mate's usage and double-count.  The runs are long
        # enough for the rule to outgrow the sample bound inside one job, so
        # the split point depends on every job's thinned sample.
        settings = tiny_settings(num_specimens=16, sim_duration=2.0)
        per_job_uses = []

        def record(index, stats):
            per_job_uses.append(stats[0].use_count)
            return stats

        serial_result, serial_usage = self._evaluate(RewritingBackend(record), True, settings)
        assert max(per_job_uses) > SAMPLE_RESERVOIR
        with ProcessPoolBackend(max_workers=2) as backend:
            pool_result, pool_usage = self._evaluate(backend, True, settings)
        assert pool_usage == serial_usage
        assert pool_result.score == serial_result.score

    def test_process_training_does_not_require_merge_for_scoring(self):
        serial_result, _ = self._evaluate(SerialBackend(), training=False)
        with ProcessPoolBackend(max_workers=2) as backend:
            pool_result, pool_usage = self._evaluate(backend, training=False)
        assert pool_result.score == serial_result.score
        # A read-only pass leaves the master untouched.
        assert [count for count, _ in pool_usage] == [0]

    def test_optimizer_trajectory_identical_across_backends(self):
        def run(backend):
            evaluator = Evaluator(
                tiny_range(),
                Objective.proportional(1.0),
                tiny_settings(num_specimens=1, sim_duration=1.5),
                backend=backend,
            )
            optimizer = RemyOptimizer(
                evaluator,
                tree=WhiskerTree(),
                settings=OptimizerSettings(
                    max_epochs=1, max_evaluations=8, candidate_magnitudes=1
                ),
            )
            optimizer.optimize()
            return (
                optimizer.state.score_history,
                [w.action.as_tuple() for w in optimizer.tree.whiskers()],
            )

        serial_history, serial_actions = run(SerialBackend())
        with ProcessPoolBackend(max_workers=2) as backend:
            pool_history, pool_actions = run(backend)
        assert pool_history == serial_history
        assert pool_actions == serial_actions


class TestEvaluateMany:
    def test_matches_individual_evaluations(self):
        from repro.core.action import Action

        evaluator = Evaluator(tiny_range(), settings=tiny_settings())
        trees = [
            WhiskerTree(),
            WhiskerTree(default_action=Action(1.0, 2.0, 1.0)),
            WhiskerTree(default_action=Action(0.5, 1.0, 10.0)),
        ]
        batch_scores = [
            r.score for r in evaluator.evaluate_many(trees, training=False)
        ]
        single_scores = [
            evaluator.evaluate(tree, training=False).score for tree in trees
        ]
        assert batch_scores == single_scores

    def test_counts_one_evaluation_per_tree(self):
        evaluator = Evaluator(tiny_range(), settings=tiny_settings(num_specimens=1, sim_duration=1.0))
        evaluator.evaluate_many([WhiskerTree(), WhiskerTree()], training=False)
        assert evaluator.evaluations == 2

    def test_empty_input(self):
        evaluator = Evaluator(tiny_range(), settings=tiny_settings())
        assert evaluator.evaluate_many([], training=False) == []
        assert evaluator.evaluations == 0


class TestRunSchemeBackends:
    def test_run_scheme_identical_under_process_pool(self):
        # A scheme's run_cells fan-out, serial vs. pooled.
        from repro.analysis.summary import summarize_runs
        from repro.experiments.base import Grid, SchemeSpec, remycc_scheme, run_cells
        from repro.scenarios import ScenarioSpec
        from repro.traffic.onoff import ByteFlowWorkload

        cell = ScenarioSpec(
            name="pool-parity-cell",
            description="two-flow dumbbell for serial-vs-pool parity",
            topology="dumbbell",
            network=PathSpec.dumbbell(
                rate_bps=6e6, rtt=0.1, n_flows=2, queue="droptail", buffer_packets=200
            ),
            workloads=(ByteFlowWorkload.exponential(mean_flow_bytes=50e3, mean_off_seconds=0.5),),
        )

        def summary_of(scheme, backend=None):
            [[[runs]]] = run_cells(
                Grid([cell], [scheme], n_runs=2, duration=4.0, base_seed=0), backend=backend
            )
            return summarize_runs(scheme.name, runs)

        for scheme in (SchemeSpec("NewReno", ProtocolSpec("newreno")), remycc_scheme("delta1")):
            serial = summary_of(scheme)
            with ProcessPoolBackend(max_workers=2) as backend:
                pooled = summary_of(scheme, backend=backend)
            assert pooled.throughputs_mbps == serial.throughputs_mbps
            assert pooled.queue_delays_ms == serial.queue_delays_ms

    def test_every_scheme_job_pickles_by_construction(self):
        # No scheme can hold a closure: every job of the study grid ships,
        # and a job names its RemyCC table instead of carrying it.
        import pickle

        from repro.analysis.study import study_schemes
        from repro.experiments.base import Grid, run_cells

        class Recording(SerialBackend):
            def run_batch(self, jobs):
                self.jobs = list(jobs)
                return super().run_batch(jobs)

        backend = Recording()
        run_cells(Grid(["fig4-dumbbell8"], study_schemes(), n_runs=1, duration=0.2),
                  backend=backend)
        shipped = pickle.loads(pickle.dumps(prepare_jobs(backend.jobs)))
        assert [job.protocols for job in shipped] == [job.protocols for job in backend.jobs]
        assert all(job.tree is None for job in shipped)
        assert ProtocolSpec("remy", tree="delta1") in {job.protocols[0] for job in shipped}


# ---------------------------------------------------------------------------
# One statistics path: the designed tree does not depend on what ran the jobs
# ---------------------------------------------------------------------------
class TestSameTreeByConstruction:
    """The pinned design run of ``bench/`` (``design-serial`` / ``design-pool``).

    Its split evaluation fires the root rule more than the sample bound in
    one job, which is where in-place accumulation and merged worker deltas
    used to keep different samples: serial and pooled runs split the root at
    different points.
    """

    @staticmethod
    def design(backend):
        evaluator = Evaluator(
            general_purpose_range(),
            Objective.proportional(1.0),
            EvaluatorSettings(num_specimens=2, sim_duration=2.0, seed=0),
            backend=backend,
        )
        optimizer = RemyOptimizer(
            evaluator,
            tree=WhiskerTree(name="pinned"),
            settings=OptimizerSettings(
                epochs_per_split=1, max_epochs=2, max_evaluations=105, candidate_magnitudes=1
            ),
        )
        tree = optimizer.optimize()
        return (
            whisker_tree_token(tree),
            tree._root.index[:3],
            [repr(score) for score in optimizer.state.score_history],
        )

    def test_every_backend_designs_the_same_tree(self):
        outcomes = {"serial": self.design(SerialBackend())}
        for spec in ("process:1", "process:2"):
            with backend_from_spec(spec) as backend:
                outcomes[spec] = self.design(backend)
        token, cuts, history = outcomes["serial"]
        assert all(len(dim_cuts) == 1 for dim_cuts in cuts) and len(history) == 106
        for name, outcome in outcomes.items():
            assert outcome == (token, cuts, history), name
