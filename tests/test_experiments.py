"""Smoke and shape tests for the experiment harnesses.

These use deliberately tiny run counts and durations so the full suite stays
fast; the benchmarks exercise the same harnesses at larger (still scaled)
sizes and assert the paper's qualitative shapes.
"""

import pickle
from dataclasses import replace

import pytest

from repro.experiments import base
from repro.experiments.base import (
    ExperimentResult,
    SchemeSpec,
    remycc_scheme,
    run_cells,
    standard_schemes,
    sweep_seed,
)
from repro.experiments.competing import run_vs_compound, run_vs_cubic
from repro.experiments.convergence import run_figure6
from repro.experiments.datacenter import run_datacenter
from repro.experiments.clouds import run_cloud_figure
from repro.experiments.prior_knowledge import run_figure11
from repro.experiments.rtt_fairness import FIGURE10_RTTS, format_figure10, run_figure10
from repro.experiments.summary_tables import run_summary_table
from repro.protocols.cubic import Cubic
from repro.protocols.newreno import NewReno
from repro.runner import SerialBackend
from repro.scenarios import get_scenario

#: A reduced comparison set used by the smoke tests (fast but representative).
FAST_SCHEMES = [
    SchemeSpec("NewReno", NewReno),
    SchemeSpec("Cubic", Cubic),
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
    return cell.override(trace=replace(cell.trace, duration_seconds=0.2))


#: Every harness entry point, called with only its run size and the axis its
#: figure sweeps, beside the registry cell it runs and that axis applied to it.
HARNESS_AXES = {
    "figure4": (lambda: run_cloud_figure(4, n_runs=1, duration=0.2), "fig4-dumbbell8", None),
    "figure5": (lambda: run_cloud_figure(5, n_runs=1, duration=0.2), "fig5-dumbbell12", None),
    "figure6": (lambda: run_figure6(duration=3.0, departure_time=1.5), "fig6-convergence", None),
    "figure7": (lambda: run_cloud_figure(7, n_runs=1, duration=0.2), "fig7-lte4", retraced),
    "figure8": (lambda: run_cloud_figure(8, n_runs=1, duration=0.2), "fig8-lte8", retraced),
    "figure9": (lambda: run_cloud_figure(9, n_runs=1, duration=0.2), "fig9-att4", retraced),
    "figure10": (
        lambda: run_figure10(n_runs=1, duration=0.2), "fig10-rtt-fairness",
        lambda cell: cell.override(queue="droptail"),
    ),
    "figure11": (
        lambda: run_figure11(link_speeds_mbps=(8.0,), n_runs=1, duration=0.2), "fig11-prior-1x",
        lambda cell: cell.override(link_rate_bps=8e6, queue="droptail"),
    ),
    "datacenter": (lambda: run_datacenter(scale=32, duration=0.2), "datacenter-dctcp", None),
    # The off=0.2 s row is the registry's ICSI workload.
    "vs_compound": (
        lambda: run_vs_compound(off_times_seconds=(0.2,), n_runs=1, duration=0.2),
        "competing-remy-cubic",
        lambda cell: cell.override(workload=get_scenario("fig5-dumbbell12").workload),
    ),
    "vs_cubic": (
        lambda: run_vs_cubic(mean_flow_bytes=(100e3,), n_runs=1, duration=0.2),
        "competing-remy-cubic",
        lambda cell: cell.override(seed=62),
    ),
    "summary_table": (lambda: run_summary_table(7, n_runs=1, duration=0.2), "fig7-lte4", retraced),
}


class TestRunCells:
    """The one harness entry point: job building, seeding, batching."""

    def test_every_job_is_sweep_seeded_and_schemes_share_seeds(self):
        cells = [get_scenario("fig4-dumbbell8"), get_scenario("parking-lot-2bn")]
        schemes = [
            SchemeSpec("NewReno", NewReno),
            SchemeSpec("Cubic/sfqCoDel", Cubic, queue="sfqcodel"),
            remycc_scheme("delta1"),
        ]
        backend = RecordingBackend()
        grid = run_cells(cells, schemes, n_runs=2, duration=0.5, base_seed=9, backend=backend)
        [jobs] = backend.batches
        assert [len(per_scheme) for per_scheme in grid] == [3, 3]
        assert all(len(runs) == 2 for per_scheme in grid for runs in per_scheme)
        expected = [
            sweep_seed(cell.name, 9, run) for cell in cells for _scheme in schemes for run in (0, 1)
        ]
        assert [job.seed for job in jobs] == expected
        assert [job.job_id for job in jobs] == list(range(12))
        # A scheme swaps the queue only when it names one.
        assert [job.spec.queue for job in jobs[:6]] == [
            "droptail", "droptail", "sfqcodel", "sfqcodel", "droptail", "droptail",
        ]

    def test_base_seed_defaults_to_each_cells_canonical_seed(self):
        cell = get_scenario("fig4-dumbbell8")
        backend = RecordingBackend()
        run_cells([cell.name], n_runs=2, duration=0.5, backend=backend)
        assert [job.seed for job in backend.batches[0]] == [
            sweep_seed(cell.name, cell.seed, 0),
            sweep_seed(cell.name, cell.seed, 1),
        ]

    def test_without_schemes_a_mixed_cell_runs_its_own_protocols(self):
        from repro.protocols.cubic import Cubic as CubicProtocol
        from repro.protocols.remycc import RemyCCProtocol

        cell = get_scenario("competing-remy-cubic")
        backend = RecordingBackend()
        [[[result]]] = run_cells([cell], n_runs=1, duration=1.0, backend=backend)
        [[job]] = backend.batches
        assert job.scenario is cell and job.tree is None and job.protocol_factory is None
        assert [type(p) for p in job.build_protocols()] == [RemyCCProtocol, CubicProtocol]
        assert len(result.flow_stats) == 2

    def test_n_runs_must_be_positive(self):
        for n_runs in (0, -1):
            with pytest.raises(ValueError, match="n_runs"):
                run_cells(["fig4-dumbbell8"], n_runs=n_runs)

    @pytest.mark.parametrize(
        "run, kwargs",
        [
            (run_figure10, dict(n_runs=1, duration=0.5)),
            (run_figure11, dict(n_runs=1, duration=0.5)),
            (run_vs_compound, dict(n_runs=1, duration=0.5)),
            (run_vs_cubic, dict(n_runs=1, duration=0.5)),
            (run_datacenter, dict(scale=32, duration=0.2)),
        ],
        ids=["figure10", "figure11", "vs_compound", "vs_cubic", "datacenter"],
    )
    def test_a_figure_is_one_batch(self, run, kwargs):
        # A process pool must see the whole figure at once, not drain
        # between schemes, rows or link speeds.
        backend = RecordingBackend()
        run(backend=backend, **kwargs)
        assert len(backend.batches) == 1

    @pytest.mark.parametrize("entry", sorted(HARNESS_AXES))
    def test_a_harness_restates_nothing(self, entry, monkeypatch):
        # Each job runs the registry cell but for the swept axis and the queue a
        # scheme (or the datacenter's DropTail RemyCC row) brings.
        run, cell_name, axis = HARNESS_AXES[entry]
        cell = get_scenario(cell_name)
        cell = axis(cell) if axis else cell
        backend = RecordingBackend()
        monkeypatch.setattr(base, "SerialBackend", lambda: backend)
        run()
        [jobs] = backend.batches
        spec = cell.network_spec()
        workloads = pickle.dumps(tuple(cell.make_workloads() or ()))
        assert [job.spec.with_queue(spec.queue) for job in jobs] == [spec] * len(jobs)
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
        assert spec.link_rate_bps == 15e6
        assert spec.rtt_for_flow(0) == 0.150
        assert spec.buffer_packets == 1000
        assert spec.queue == "droptail"


class TestDumbbell:
    def test_figure4_smoke(self):
        result = run_cloud_figure(4, n_flows=4, n_runs=1, duration=8.0, schemes=FAST_SCHEMES)
        assert set(result.schemes()) == {s.name for s in FAST_SCHEMES}
        for summary in result.summaries.values():
            assert summary.n_points > 0
            assert summary.median_throughput_mbps() > 0

    def test_figure4_remy_outperforms_newreno(self):
        result = run_cloud_figure(4, n_flows=4, n_runs=2, duration=12.0, schemes=FAST_SCHEMES)
        assert (
            result["Remy d=1"].median_throughput_mbps()
            > result["NewReno"].median_throughput_mbps()
        )

    def test_figure5_smoke(self):
        result = run_cloud_figure(5, n_flows=4, n_runs=1, duration=8.0, schemes=FAST_SCHEMES)
        assert len(result.summaries) == len(FAST_SCHEMES)


class TestConvergence:
    def test_flow_speeds_up_when_competitor_departs(self):
        result = run_figure6(duration=16.0, departure_time=8.0)
        assert result.rate_after_mbps > result.rate_before_mbps
        assert result.sequence_trace
        assert result.rate_after_mbps < result.link_rate_mbps * 1.05

    def test_invalid_departure_time(self):
        with pytest.raises(ValueError):
            run_figure6(duration=10.0, departure_time=20.0)


class TestRttFairness:
    def test_share_profile_structure(self):
        results = run_figure10(n_runs=1, duration=10.0)
        assert {r.scheme for r in results} >= {"Cubic/sfqCoDel"}
        for result in results:
            assert len(result.shares) == len(FIGURE10_RTTS)
            assert sum(result.shares) == pytest.approx(1.0, abs=1e-6)
            assert 0 < result.jain <= 1.0
        assert "Figure 10" in format_figure10(results)

    def test_shorter_rtt_gets_no_smaller_share_for_cubic(self):
        results = run_figure10(n_runs=2, duration=15.0)
        cubic = next(r for r in results if r.scheme == "Cubic/sfqCoDel")
        # RTT unfairness: the 50 ms flow should do at least as well as the 200 ms flow.
        assert cubic.shares[0] >= cubic.shares[-1] - 0.05


class TestDatacenter:
    def test_scaled_datacenter_run(self):
        result = run_datacenter(scale=32, duration=1.5)
        assert result.n_flows == 2
        assert result.dctcp.mean_throughput_mbps > 0
        assert result.remycc.mean_throughput_mbps > 0
        assert "Datacenter" in result.format_table()

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            run_datacenter(scale=7)


class TestCompeting:
    def test_vs_cubic_produces_rows(self):
        result = run_vs_cubic(mean_flow_bytes=(100e3,), n_runs=1, duration=10.0)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.remy_mean_mbps > 0
        assert row.other_mean_mbps > 0
        assert "Cubic" in result.format_table()

    def test_vs_compound_produces_rows(self):
        result = run_vs_compound(off_times_seconds=(0.2,), n_runs=1, duration=10.0)
        assert len(result.rows) == 1
        assert result.rows[0].other_name == "Compound"


class TestPriorKnowledge:
    def test_figure11_structure_and_shape(self):
        result = run_figure11(
            link_speeds_mbps=(4.7, 15.0, 47.0),
            n_runs=1,
            duration=10.0,
        )
        assert set(result.schemes()) == {"RemyCC 1x", "RemyCC 10x", "Cubic/sfqCoDel"}
        # The 1x table should be at least competitive at its design point...
        at_design = result.score_at("RemyCC 1x", 15.0)
        assert at_design > result.score_at("RemyCC 1x", 47.0) - 2.0
        # ...and the 10x table should not collapse anywhere inside its range.
        for speed in (4.7, 15.0, 47.0):
            assert result.score_at("RemyCC 10x", speed) > -6.0
        assert "Figure 11" in result.format_table()


class TestSummaryTables:
    def test_dumbbell_summary_rows(self):
        table = run_summary_table(
            4,
            n_runs=1,
            duration=8.0,
            remy_scheme="Remy d=1",
            schemes=FAST_SCHEMES,
        )
        assert table.remycc == "Remy d=1"
        names = {row.baseline for row in table.rows}
        assert names == {"NewReno", "Cubic"}
        assert table.row_for("Cubic").median_speedup > 0
        assert "speedup" in table.name or "Summary" in table.name
        assert "NewReno" in table.format()
