"""E2 — Figure 4: dumbbell, 15 Mbps, 150 ms RTT, n = 8 senders, 100 kB flows.

Regenerates the median per-sender throughput / queueing-delay points for
every scheme of the figure.  Expected shape (paper): the three RemyCCs trace
the efficient frontier, ordered δ=0.1 (highest throughput) → δ=10 (lowest
delay); Cubic is the most throughput-aggressive human baseline; Vegas the
most delay-conscious.
"""

from repro.experiments.clouds import run_cloud_figure


def test_figure4_dumbbell_8_senders(bench_once):
    result = bench_once(run_cloud_figure, 4, n_runs=2, duration=20.0)
    print()
    print(result.format_table())
    print("efficient frontier:", ", ".join(result.frontier_names()))

    remy01 = result["Remy d=0.1"]
    remy10 = result["Remy d=10"]
    cubic = result["Cubic"]
    newreno = result["NewReno"]

    # Shape checks corresponding to the paper's qualitative claims.
    assert remy01.median_throughput_mbps() > cubic.median_throughput_mbps()
    assert remy01.median_throughput_mbps() > newreno.median_throughput_mbps()
    assert remy10.median_queue_delay_ms() < cubic.median_queue_delay_ms()
    # The delta knob trades throughput for delay.
    assert remy01.median_throughput_mbps() >= remy10.median_throughput_mbps()
    assert remy10.median_queue_delay_ms() <= remy01.median_queue_delay_ms()
    # At least one RemyCC sits on the efficient frontier.
    assert any(name.startswith("Remy") for name in result.frontier_names())
