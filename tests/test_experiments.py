"""Smoke and shape tests for the experiment harnesses.

These use deliberately tiny run counts and durations so the full suite stays
fast; ``tests/test_claims.py`` runs the same harnesses at larger (still
scaled) sizes and checks the paper's claims (``repro.experiments.claims``).
"""

import pickle
from dataclasses import replace
from functools import cache, partial

import pytest

from repro.experiments.base import (
    ExperimentResult,
    Grid,
    SchemeSpec,
    remycc_scheme,
    run_cells,
    run_plans,
    standard_schemes,
    sweep_seed,
)
from repro.experiments.claims import HARNESSES
from repro.experiments.competing import run_vs_compound, run_vs_cubic
from repro.experiments.convergence import run_figure6
from repro.experiments.datacenter import run_datacenter
from repro.experiments.clouds import run_cloud_figure
from repro.experiments.prior_knowledge import run_figure11
from repro.experiments.rtt_fairness import FIGURE10_RTTS, run_figure10
from repro.runner import ProcessPoolBackend, SerialBackend
from repro.scenarios import ProtocolSpec, get_scenario
from repro.traces import TraceSpec

#: A reduced comparison set used by the smoke tests (fast but representative).
FAST_SCHEMES = [
    SchemeSpec("NewReno", ProtocolSpec("newreno")),
    SchemeSpec("Cubic", ProtocolSpec("cubic")),
    remycc_scheme("delta1", label="Remy d=1"),
]


class RecordingBackend(SerialBackend):
    """Serial execution that keeps every batch it was handed."""

    def __init__(self):
        self.batches = []

    def run_batch(self, jobs):
        self.batches.append(list(jobs))
        return super().run_batch(jobs)


def retraced(cell):
    """A cellular cell with its trace re-described at the 0.2 s runs below."""
    trace = cell.network.forward[0].delivery_trace
    return cell.override(delivery_trace=replace(trace, duration_seconds=0.2))


#: Every harness entry point, in ``HARNESSES``' order, called with only its run
#: size and the axis its figure sweeps, beside the registry cell it runs and
#: that axis applied to it.
HARNESS_AXES = {
    "figure4": (partial(run_cloud_figure, 4, n_runs=1, duration=0.2), "fig4-dumbbell8", None),
    "figure5": (partial(run_cloud_figure, 5, n_runs=1, duration=0.2), "fig5-dumbbell12", None),
    "figure6": (partial(run_figure6, duration=3.0, departure_time=1.5), "fig6-convergence", None),
    "figure7": (partial(run_cloud_figure, 7, n_runs=1, duration=0.2), "fig7-lte4", retraced),
    "figure8": (partial(run_cloud_figure, 8, n_runs=1, duration=0.2), "fig8-lte8", retraced),
    "figure9": (partial(run_cloud_figure, 9, n_runs=1, duration=0.2), "fig9-att4", retraced),
    "figure10": (
        partial(run_figure10, n_runs=1, duration=0.2), "fig10-rtt-fairness",
        lambda cell: cell.override(queue="droptail"),
    ),
    "figure11": (
        partial(run_figure11, link_speeds_mbps=(8.0,), n_runs=1, duration=0.2), "fig11-prior-1x",
        lambda cell: cell.override(rate_bps=8e6, queue="droptail"),
    ),
    "datacenter": (partial(run_datacenter, scale=32, duration=0.2), "datacenter-dctcp", None),
    # The off=0.2 s row is the registry's ICSI workload.
    "vs_compound": (
        partial(run_vs_compound, off_times_seconds=(0.2,), n_runs=1, duration=0.2),
        "competing-remy-cubic",
        lambda cell: cell.override(workloads=get_scenario("fig5-dumbbell12").workloads),
    ),
    "vs_cubic": (
        partial(run_vs_cubic, mean_flow_bytes=(100e3,), n_runs=1, duration=0.2),
        "competing-remy-cubic",
        lambda cell: cell.override(seed=62),
    ),
}


@cache
def harnesses_in_one_batch():
    """Every ``HARNESS_AXES`` plan run by ``run_plans``: the batches, and each fold."""
    backend = RecordingBackend()
    results = run_plans([run() for run, *_ in HARNESS_AXES.values()], backend)
    return backend.batches, dict(zip(HARNESS_AXES, results))


class TestRunCells:
    """The one harness entry point: job building, seeding, batching."""

    def test_every_job_is_sweep_seeded_and_schemes_share_seeds(self):
        cells = [get_scenario("fig4-dumbbell8"), get_scenario("parking-lot-2bn")]
        schemes = [
            SchemeSpec("NewReno", ProtocolSpec("newreno")),
            SchemeSpec("Cubic/sfqCoDel", ProtocolSpec("cubic"), queue="sfqcodel"),
            remycc_scheme("delta1"),
        ]
        backend = RecordingBackend()
        [grid] = run_cells(
            Grid(cells, schemes, n_runs=2, duration=0.5, base_seed=9), backend=backend
        )
        [jobs] = backend.batches
        assert [len(per_scheme) for per_scheme in grid] == [3, 3]
        assert all(len(runs) == 2 for per_scheme in grid for runs in per_scheme)
        expected = [
            sweep_seed(cell.name, 9, run) for cell in cells for _scheme in schemes for run in (0, 1)
        ]
        assert [job.seed for job in jobs] == expected
        assert [job.job_id for job in jobs] == list(range(12))
        # A scheme swaps the queue only when it names one.
        assert [job.spec.forward[0].queue for job in jobs[:6]] == [
            "droptail", "droptail", "sfqcodel", "sfqcodel", "droptail", "droptail",
        ]

    def test_base_seed_defaults_to_each_cells_canonical_seed(self):
        cell = get_scenario("fig4-dumbbell8")
        backend = RecordingBackend()
        run_cells(Grid([cell.name], n_runs=2, duration=0.5), backend=backend)
        assert [job.seed for job in backend.batches[0]] == [
            sweep_seed(cell.name, cell.seed, 0),
            sweep_seed(cell.name, cell.seed, 1),
        ]

    def test_without_schemes_a_mixed_cell_runs_its_own_protocols(self):
        from repro.protocols.cubic import Cubic as CubicProtocol
        from repro.protocols.remycc import RemyCCProtocol

        cell = get_scenario("competing-remy-cubic")
        backend = RecordingBackend()
        [[[[result]]]] = run_cells(Grid([cell], n_runs=1, duration=1.0), backend=backend)
        [[job]] = backend.batches
        assert job.protocols == cell.protocols and job.tree is None
        assert [type(p) for p in job.build_protocols()] == [RemyCCProtocol, CubicProtocol]
        assert len(result.flow_stats) == 2

    def test_n_runs_must_be_positive(self):
        for n_runs in (0, -1):
            with pytest.raises(ValueError, match="n_runs"):
                Grid(["fig4-dumbbell8"], n_runs=n_runs)

    @pytest.mark.parametrize("entry", sorted(HARNESS_AXES))
    def test_every_harness_is_one_slice_of_one_batch(self, entry):
        # A process pool sees all 11 harnesses at once, not one figure,
        # scheme, row or link speed at a time, and each harness's slice
        # folds to what the harness gives when run alone.
        assert [run.func for run, *_ in HARNESS_AXES.values()] == [
            harness.func for harness in HARNESSES.values()
        ]
        [jobs], results = harnesses_in_one_batch()
        assert [job.job_id for job in jobs] == list(range(len(jobs)))
        run, *_ = HARNESS_AXES[entry]
        assert results[entry] == run().run()

    @pytest.mark.parametrize("entry", sorted(HARNESS_AXES))
    def test_a_harness_restates_nothing(self, entry):
        # Each job runs the registry cell but for the swept axis and the queue a
        # scheme (or the datacenter's DropTail RemyCC row) brings.
        run, cell_name, axis = HARNESS_AXES[entry]
        cell = get_scenario(cell_name)
        cell = axis(cell) if axis else cell
        backend = RecordingBackend()
        run().run(backend)
        [jobs] = backend.batches
        spec = cell.network
        workloads = pickle.dumps(tuple(cell.make_workloads() or ()))
        queue = spec.forward[0].queue
        assert [job.spec.with_hops(queue=queue) for job in jobs] == [spec] * len(jobs)
        assert [pickle.dumps(job.workloads) for job in jobs] == [workloads] * len(jobs)
        assert {job.seed for job in jobs} == {sweep_seed(cell.name, cell.seed, 0)}


class TestBase:
    def test_standard_schemes_cover_paper_comparison_set(self):
        names = {scheme.name for scheme in standard_schemes()}
        for expected in ("NewReno", "Vegas", "Cubic", "Compound", "Cubic/sfqCoDel", "XCP"):
            assert expected in names
        assert any(name.startswith("Remy") for name in names)

    def test_experiment_result_frontier(self):
        from repro.analysis.summary import SchemeSummary

        fast = SchemeSummary("fast")
        fast.add_point(2.0, 20.0)
        fast.add_point(2.1, 21.0)
        slow = SchemeSummary("slow")
        slow.add_point(0.5, 30.0)
        slow.add_point(0.6, 31.0)
        result = ExperimentResult("x", {"fast": fast, "slow": slow})
        assert result.frontier_names() == ["fast"]
        assert "fast" in result.format_table()

    def test_dumbbell_spec_matches_paper_parameters(self):
        spec = get_scenario("fig4-dumbbell8").network
        [hop] = spec.forward
        assert hop.rate_bps == 15e6
        assert spec.rtt_for_flow(0) == 0.150
        assert hop.buffer_packets == 1000
        assert hop.queue == "droptail"


class TestDumbbell:
    def test_figure4_smoke(self):
        result = run_cloud_figure(4, n_flows=4, n_runs=1, duration=8.0, schemes=FAST_SCHEMES).run()
        assert set(result.schemes()) == {s.name for s in FAST_SCHEMES}
        for summary in result.summaries.values():
            assert summary.n_points > 0
            assert summary.median_throughput_mbps() > 0

    def test_figure4_remy_outperforms_newreno(self):
        result = run_cloud_figure(4, n_flows=4, n_runs=2, duration=12.0, schemes=FAST_SCHEMES).run()
        assert (
            result["Remy d=1"].median_throughput_mbps()
            > result["NewReno"].median_throughput_mbps()
        )

    def test_figure5_smoke(self):
        result = run_cloud_figure(5, n_flows=4, n_runs=1, duration=8.0, schemes=FAST_SCHEMES).run()
        assert len(result.summaries) == len(FAST_SCHEMES)


class TestCellular:
    def test_a_pooled_figure7_equals_the_serial_run_and_ships_small_jobs(self):
        # The cell's trace rides its hop as a TraceSpec, re-described at the
        # run's duration: a job is a few scalars, not thousands of instants.
        figure7 = run_cloud_figure(7, n_runs=2, duration=1.0, schemes=FAST_SCHEMES)
        recording = RecordingBackend()
        serial = figure7.run(recording)
        [jobs] = recording.batches
        traces = {job.spec.forward[0].delivery_trace for job in jobs}
        assert traces == {TraceSpec("verizon", 1.0, 1)}
        assert max(len(pickle.dumps(job)) for job in jobs) <= 1024
        with ProcessPoolBackend(max_workers=2) as pool:
            assert figure7.run(pool) == serial
        assert all(summary.n_points for summary in serial.summaries.values())


class TestConvergence:
    def test_flow_speeds_up_when_competitor_departs(self):
        result = run_figure6(duration=16.0, departure_time=8.0).run()
        assert result.rate_after_mbps > result.rate_before_mbps
        assert result.sequence_trace
        assert result.rate_after_mbps < result.link_rate_mbps * 1.05

    def test_invalid_departure_time(self):
        with pytest.raises(ValueError):
            run_figure6(duration=10.0, departure_time=20.0)


class TestRttFairness:
    def test_share_profile_structure(self):
        results = run_figure10(n_runs=1, duration=10.0).run()
        assert {r.scheme for r in results} >= {"Cubic/sfqCoDel"}
        for result in results:
            assert len(result.shares) == len(FIGURE10_RTTS)
            assert sum(result.shares) == pytest.approx(1.0, abs=1e-6)
            assert 0 < result.jain <= 1.0

    def test_shorter_rtt_gets_no_smaller_share_for_cubic(self):
        results = run_figure10(n_runs=2, duration=15.0).run()
        cubic = next(r for r in results if r.scheme == "Cubic/sfqCoDel")
        # RTT unfairness: the 50 ms flow should do at least as well as the 200 ms flow.
        assert cubic.shares[0] >= cubic.shares[-1] - 0.05


class TestDatacenter:
    def test_scaled_datacenter_run(self):
        result = run_datacenter(scale=32, duration=1.5).run()
        assert result.n_flows == 2
        assert result.dctcp.mean_throughput_mbps > 0
        assert result.remycc.mean_throughput_mbps > 0
        assert "Datacenter" in result.format_table()

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            run_datacenter(scale=7)


class TestCompeting:
    def test_vs_cubic_produces_rows(self):
        result = run_vs_cubic(mean_flow_bytes=(100e3,), n_runs=1, duration=10.0).run()
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.remy_mean_mbps > 0
        assert row.other_mean_mbps > 0

    def test_vs_compound_produces_rows(self):
        result = run_vs_compound(off_times_seconds=(0.2,), n_runs=1, duration=10.0).run()
        assert len(result.rows) == 1
        assert result.rows[0].other_name == "Compound"


class TestPriorKnowledge:
    def test_figure11_structure_and_shape(self):
        result = run_figure11(
            link_speeds_mbps=(4.7, 15.0, 47.0),
            n_runs=1,
            duration=10.0,
        ).run()
        assert {p.scheme for p in result.points} == {"RemyCC 1x", "RemyCC 10x", "Cubic/sfqCoDel"}
        # The 1x table should be at least competitive at its design point...
        at_design = result.score_at("RemyCC 1x", 15.0)
        assert at_design > result.score_at("RemyCC 1x", 47.0) - 2.0
        # ...and the 10x table should not collapse anywhere inside its range.
        for speed in (4.7, 15.0, 47.0):
            assert result.score_at("RemyCC 10x", speed) > -6.0

