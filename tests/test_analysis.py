"""Tests for the analysis helpers (ellipses, frontier, fairness, speedups, study)."""

import dataclasses
import math
import multiprocessing

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.compare import speedup_table
from repro.analysis.ellipse import fit_gaussian_ellipse
from repro.analysis.fairness import jain_index, normalized_shares
from repro.analysis.frontier import efficient_frontier, is_dominated
from repro.analysis.study import CellStudy, StudyResult, run_study
from repro.analysis.summary import SchemeSummary, format_summary_table, summarize_runs
from repro.experiments.base import SchemeSpec
from repro.netsim.simulator import SimulationResult
from repro.netsim.stats import FlowStats
from repro.scenarios import ProtocolSpec, get_scenario
from tools import run_study as run_study_tool


def make_summary(name, tput, delay, n=8):
    summary = SchemeSummary(name)
    for i in range(n):
        summary.add_point(tput + 0.01 * i, delay + 0.1 * i)
    return summary


class TestEllipse:
    def test_fit_recovers_mean(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [10.0, 12.0, 14.0, 16.0]
        ellipse = fit_gaussian_ellipse(xs, ys)
        assert ellipse.mean_x == pytest.approx(2.5)
        assert ellipse.mean_y == pytest.approx(13.0)
        assert ellipse.n_points == 4

    def test_perfect_correlation_gives_degenerate_minor_axis(self):
        xs = list(range(10))
        ys = [2 * x for x in xs]
        ellipse = fit_gaussian_ellipse(xs, ys)
        assert ellipse.semi_minor == pytest.approx(0.0, abs=1e-9)
        assert ellipse.semi_major > 0

    def test_contains_mean(self):
        ellipse = fit_gaussian_ellipse([1, 2, 3, 4, 5], [5, 3, 8, 1, 9])
        assert ellipse.contains(ellipse.mean_x, ellipse.mean_y)

    def test_boundary_points_lie_on_contour(self):
        ellipse = fit_gaussian_ellipse([1, 2, 3, 4, 5, 6], [2, 4, 3, 5, 7, 6])
        for x, y in ellipse.boundary_points(16):
            assert ellipse.contains(x, y, n_sigma=1.0 + 1e-6)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fit_gaussian_ellipse([1, 2], [1])

    @given(
        xs=st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_axes_are_non_negative(self, xs):
        ys = [x * 0.5 + 3 for x in xs]
        ellipse = fit_gaussian_ellipse(xs, ys)
        assert ellipse.semi_major >= ellipse.semi_minor >= 0


class TestSummary:
    def test_add_result_collects_active_flows(self):
        stats = FlowStats(
            0, bytes_received=1_250_000, packets_received=1,
            queue_delay_sum=0.01, queue_delay_count=1,
        )
        stats.record_on_time(10.0)
        result = SimulationResult(duration=10.0, flow_stats=[stats, FlowStats(1)])
        summary = summarize_runs("test", [result])
        assert summary.n_points == 1
        assert summary.median_throughput_mbps() == pytest.approx(1.0)
        assert summary.median_queue_delay_ms() == pytest.approx(10.0)

    def test_ellipse_requires_two_points(self):
        summary = SchemeSummary("x")
        summary.add_point(1.0, 1.0)
        assert summary.ellipse() is None
        summary.add_point(2.0, 2.0)
        assert summary.ellipse() is not None

    def test_format_table_contains_all_schemes(self):
        table = format_summary_table([make_summary("a", 1, 10), make_summary("b", 2, 5)])
        assert "a" in table and "b" in table

    def test_as_row(self):
        row = make_summary("scheme", 1.5, 12.0).as_row()
        assert row["scheme"] == "scheme"
        assert row["points"] == 8


class TestFrontier:
    def test_dominated_scheme_detected(self):
        good = make_summary("good", 2.0, 5.0)
        bad = make_summary("bad", 1.0, 10.0)
        assert is_dominated(bad, [good, bad])
        assert not is_dominated(good, [good, bad])

    def test_frontier_keeps_tradeoff_points(self):
        fast = make_summary("fast", 2.0, 20.0)
        low_delay = make_summary("low-delay", 1.0, 2.0)
        dominated = make_summary("dominated", 0.9, 25.0)
        frontier = efficient_frontier([fast, low_delay, dominated])
        names = [s.scheme for s in frontier]
        assert names == ["fast", "low-delay"]


class TestFairness:
    def test_jain_perfectly_fair(self):
        assert jain_index([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_jain_single_user_hogging(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_normalized_shares_sum_to_one(self):
        shares = normalized_shares([1.0, 3.0, 4.0])
        assert sum(shares) == pytest.approx(1.0)
        assert shares[2] == pytest.approx(0.5)

    def test_all_zero_allocations(self):
        assert normalized_shares([0.0, 0.0]) == [0.0, 0.0]

    def test_jain_requires_values(self):
        with pytest.raises(ValueError):
            jain_index([])

    @given(values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20))
    @example(values=[1e-161] * 5)  # squares used to go subnormal: 1.012 ...
    @example(values=[2.2e-162] * 7)  # ... and 0.98, for perfectly equal shares
    @settings(max_examples=100, deadline=None)
    def test_jain_bounds(self, values):
        index = jain_index(values)
        assert 0.0 < index <= 1.0 + 1e-9

    @pytest.mark.parametrize("scale", [1e-161, 1.0, 1e6])
    def test_jain_of_equal_allocations_is_exactly_one(self, scale):
        for n in (1, 5, 7):
            assert jain_index([scale] * n) == 1.0


class TestSpeedupTable:
    def test_speedups_relative_to_baselines(self):
        remy = make_summary("Remy", 2.0, 5.0)
        cubic = make_summary("Cubic", 1.0, 15.0)
        vegas = make_summary("Vegas", 0.5, 2.5)
        rows = speedup_table(remy, [cubic, vegas])
        by_name = {row.baseline: row for row in rows}
        assert by_name["Cubic"].median_speedup == pytest.approx(2.0, rel=0.05)
        assert by_name["Cubic"].median_delay_reduction == pytest.approx(3.0, rel=0.2)
        # Vegas has lower delay than the RemyCC: reduction below 1 (the paper's down-arrow).
        assert by_name["Vegas"].median_delay_reduction < 1.0


class TestStudy:
    """``run_study`` on a two-cell, two-scheme, sub-second grid."""

    SCHEMES = [
        SchemeSpec("Vegas", ProtocolSpec("vegas")),
        SchemeSpec("NewReno", ProtocolSpec("newreno")),
    ]

    @staticmethod
    def cells():
        return [
            dataclasses.replace(get_scenario("fig4-dumbbell8"), duration=0.75),
            dataclasses.replace(get_scenario("chain-3hop"), duration=0.5),
        ]

    def test_cells_are_ranked_by_median_throughput(self):
        result = run_study(self.cells(), self.SCHEMES, n_runs=1, duration=0.5)
        assert [cell_study.cell.name for cell_study in result.cells] == [
            "fig4-dumbbell8",
            "chain-3hop",
        ]
        for cell_study in result.cells:
            rows = cell_study.rows()
            assert [row["rank"] for row in rows] == [1, 2]
            # NewReno out-sends Vegas in half a second, so the ranking had to
            # reorder the schemes it was given.
            assert [row["scheme"] for row in rows] == ["NewReno", "Vegas"]
            assert rows[0]["median_throughput_mbps"] > rows[1]["median_throughput_mbps"]
        assert "over 1 run(s) of 0.5 simulated seconds (collision-free" in result.to_markdown()

    def test_header_does_not_pass_one_cell_duration_off_as_every_cells(self):
        markdown = run_study(self.cells(), self.SCHEMES, n_runs=1).to_markdown()
        assert "over 1 run(s) of each cell's canonical duration (collision-free" in markdown
        assert "run(s) of 0.75 simulated seconds" not in markdown

    @staticmethod
    def synthetic():
        # "b" out-ranks "a" in both cells and both are on the frontier;
        # "dominated" is slower and later than either.
        summaries = [
            make_summary("dominated", 0.5, 30.0),
            make_summary("a", 1.0, 2.0),
            make_summary("b", 2.0, 20.0),
        ]
        ranked = sorted(summaries, key=lambda s: s.median_throughput_mbps(), reverse=True)
        frontier = [s.scheme for s in efficient_frontier(summaries)]
        return StudyResult(
            duration=1.0,
            n_runs=1,
            cells=[CellStudy(cell, ranked, frontier) for cell in TestStudy.cells()],
        )

    def test_frontier_schemes_are_marked(self):
        result = self.synthetic()
        rows = result.cells[0].rows()
        assert [(row["scheme"], row["frontier"]) for row in rows] == [
            ("b", True),
            ("a", True),
            ("dominated", False),
        ]
        markdown = result.to_markdown()
        assert "| 1 | b\\* |" in markdown and "| 2 | a\\* |" in markdown
        assert "| 3 | dominated |" in markdown

    def test_frontier_appearances_break_ties_by_name(self):
        assert self.synthetic().frontier_appearances() == [("a", 2), ("b", 2), ("dominated", 0)]

    def test_tool_reaps_its_worker_pool(self, capsys):
        args = ["--workers", "2", "--cells", "fig4-dumbbell8", "--runs", "1", "--duration", "0.5"]
        assert run_study_tool.main(args + ["--out", "-"]) == 0
        assert "| NewReno" in capsys.readouterr().out
        assert multiprocessing.active_children() == []

    def test_tool_rejects_a_negative_worker_count(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_study_tool.main(["--workers", "-1", "--cells", "fig4-dumbbell8", "--out", "-"])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err
