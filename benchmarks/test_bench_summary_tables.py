"""E1 / E12 — the §1 summary tables: RemyCC speedups over existing protocols.

Expected shape (paper): on the in-range dumbbell the RemyCC (δ = 0.1) shows a
median-throughput speedup over every existing protocol (1.4-3.1x in the
paper); on the LTE trace the speedups are smaller but still >= 1 for the
end-to-end schemes.
"""

from repro.experiments.summary_tables import run_summary_table


def test_summary_table_dumbbell(bench_once):
    table = bench_once(run_summary_table, 4, n_runs=2, duration=20.0)
    print()
    print(table.format())
    for baseline in ("Compound", "NewReno", "Cubic", "Vegas"):
        assert table.row_for(baseline).median_speedup > 1.0
    # Against the router-assisted schemes the RemyCC at least holds its own.
    assert table.row_for("XCP").median_speedup > 0.9
    assert table.row_for("Cubic/sfqCoDel").median_speedup > 0.9


def test_summary_table_lte(bench_once):
    table = bench_once(run_summary_table, 7, n_runs=2, duration=25.0)
    print()
    print(table.format())
    for baseline in ("NewReno", "Vegas"):
        assert table.row_for(baseline).median_speedup > 1.0
    # Every comparison produced a finite, positive result.
    for row in table.rows:
        assert row.median_speedup > 0
        assert row.median_delay_reduction > 0
