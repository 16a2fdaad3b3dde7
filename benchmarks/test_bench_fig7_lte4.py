"""E5 — Figure 7: Verizon LTE downlink trace (synthetic stand-in), n = 4.

Expected shape (paper): despite the model mismatch (the RemyCCs were designed
for 10-20 Mbps fixed links), with modest multiplexing the RemyCCs still
define or share the efficient frontier; Vegas has the lowest delay and
throughput.
"""

from repro.experiments.clouds import run_cloud_figure


def test_figure7_verizon_lte_4_senders(bench_once):
    result = bench_once(run_cloud_figure, 7, n_runs=2, duration=25.0)
    print()
    print(result.format_table())
    print("efficient frontier:", ", ".join(result.frontier_names()))

    remy01 = result["Remy d=0.1"]
    newreno = result["NewReno"]
    assert remy01.median_throughput_mbps() > newreno.median_throughput_mbps()
    assert any(name.startswith("Remy") for name in result.frontier_names())
