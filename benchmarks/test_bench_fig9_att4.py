"""E7 — Figure 9: AT&T LTE downlink trace (synthetic stand-in), n = 4.

Expected shape (paper): a slower, choppier link than the Verizon trace; two
of the three RemyCCs sit on the efficient frontier.
"""

from repro.experiments.clouds import run_cloud_figure


def test_figure9_att_lte_4_senders(bench_once):
    result = bench_once(run_cloud_figure, 9, n_runs=2, duration=25.0)
    print()
    print(result.format_table())
    print("efficient frontier:", ", ".join(result.frontier_names()))

    remy01 = result["Remy d=0.1"]
    vegas = result["Vegas"]
    assert remy01.median_throughput_mbps() > vegas.median_throughput_mbps()
    assert any(name.startswith("Remy") for name in result.frontier_names())
