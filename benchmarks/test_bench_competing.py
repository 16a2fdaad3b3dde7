"""E10 — §5.6 competing-protocols tables: one RemyCC flow vs Compound / Cubic.

Expected shape (paper): at low duty cycles (long off times) the RemyCC holds
its own or wins because it grabs spare bandwidth faster; as the competitor's
duty cycle rises, the buffer-filling protocol grabs an increasing share, but
the outcome stays within the same ballpark (no starvation in either
direction).
"""

from repro.experiments.competing import run_vs_compound, run_vs_cubic


def test_competing_vs_compound(bench_once):
    result = bench_once(
        run_vs_compound, off_times_seconds=(0.2, 0.1, 0.01), n_runs=8, duration=25.0
    )
    print()
    print(result.format_table())
    for row in result.rows:
        assert row.remy_mean_mbps > 0.2
        assert row.other_mean_mbps > 0.2
        # Neither protocol starves the other (within a factor of ~6).
        assert row.remy_mean_mbps > row.other_mean_mbps / 6
        assert row.other_mean_mbps > row.remy_mean_mbps / 6


def test_competing_vs_cubic(bench_once):
    result = bench_once(
        run_vs_cubic, mean_flow_bytes=(100e3, 1e6), n_runs=8, duration=25.0
    )
    print()
    print(result.format_table())
    for row in result.rows:
        assert row.remy_mean_mbps > 0.2
        assert row.other_mean_mbps > 0.2
        assert row.remy_mean_mbps > row.other_mean_mbps / 6
        assert row.other_mean_mbps > row.remy_mean_mbps / 6
