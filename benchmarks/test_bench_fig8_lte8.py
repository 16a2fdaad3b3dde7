"""E6 — Figure 8: Verizon LTE downlink trace (synthetic stand-in), n = 8.

Expected shape (paper): with more multiplexing the schemes move closer
together and the router-assisted schemes improve; at least some RemyCCs
remain on or near the efficient frontier.
"""

from repro.experiments.clouds import run_cloud_figure


def test_figure8_verizon_lte_8_senders(bench_once):
    result = bench_once(run_cloud_figure, 8, n_runs=1, duration=25.0)
    print()
    print(result.format_table())
    print("efficient frontier:", ", ".join(result.frontier_names()))

    # All schemes must have produced sensible results.
    for summary in result.summaries.values():
        assert summary.median_throughput_mbps() > 0
    # The schemes bunch together: the spread between best and worst median
    # throughput narrows compared with the 4-sender case (paper's narrative),
    # so simply require every scheme to achieve a nontrivial share.
    best = max(s.median_throughput_mbps() for s in result.summaries.values())
    worst = min(s.median_throughput_mbps() for s in result.summaries.values())
    assert worst > 0.1 * best
