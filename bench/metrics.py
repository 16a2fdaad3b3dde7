"""Names, units, directions and bounds of everything the benchmark reports.

Single source for ``bench/run.py`` (what to emit), ``bench/compare.py`` (how
to judge a difference) and the root ``BENCHMARK.json`` contract
(``python3 bench/run.py --contract`` prints it; ``bench/test_smoke.py`` keeps
the committed file equal to it).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

#: Seconds one driver run measures (``--seconds``); repetitions continue until
#: at least this long has been measured and at least ``MIN_REPS`` are done.
RUN_SECONDS = 20
MIN_REPS = 3

#: The six ``sim-long`` cells: four the flat kernel is eligible for, then a
#: multi-hop path cell and a trace-driven cell (generic kernel only).
SIM_LONG_CELLS = (
    "bench-newreno-droptail",
    "bench-remy-droptail",
    "bench-remy-training",
    "bench-newreno-sfqcodel",
    "bench-newreno-twohop",
    "fig7-lte4",
)


class WorkloadSpec(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median an end-to-end metric may worsen by;
    #: ``None`` for per-layer metrics, which explain and are never gated.
    bound: Optional[float] = None


WORKLOADS = (
    WorkloadSpec(
        "design-serial",
        "The Remy hill-climb (core + RemyCC lookup + infinite-queue flooding) in one process; "
        "dedup/abort/truncation work must show here and nowhere else.",
    ),
    WorkloadSpec(
        "design-pool",
        "The same design run over a 2-process pool: pickling, chunking, stats merge, straggler idle; "
        "a scheduling gain shows here and must not move design-serial.",
    ),
    WorkloadSpec(
        "sweep-smoke",
        "run_study over the 17-cell x 10-scheme grid plus to_markdown: many short sims across every "
        "queue kind, path cell and protocol; the optimizer does no work here.",
    ),
    WorkloadSpec(
        "sim-long",
        "Six long single simulations (4 flat-eligible, 1 path, 1 trace): steady-state per-event cost "
        "with no runner and no optimizer, flat cells beside path/trace cells.",
    ),
)

# ISSUE 11 asked for 10 % (15 % pooled) on the timings.  On the 2-CPU box
# identical code read over a 12-15 s window ranges 0.90x-1.57x raw and
# 0.95x-1.09x once scaled to the reference host speed (bench/README.md,
# "Noise floor"), and a bound has to stay above three times the quartile
# spread, so the timings take the contract's maximum.  ``failed_share`` is
# reported through the result line's ``attempted``/``failed`` because the
# contract forbids an end-to-end metric that is normally 0.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("work_per_s", "1/s", "higher", 0.25),
    Metric("simsec_per_s", "1/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: Read from result objects on every run (plus the host-speed reading and the
#: raw, unscaled median wall).
EXACT = (
    Metric("netsim.events", "count", "lower"),
    Metric("netsim.sims", "count", "lower"),
    Metric("netsim.packets_sent", "count", "lower"),
    Metric("netsim.retransmissions", "count", "lower"),
    Metric("netsim.drops", "count", "lower"),
    Metric("netsim.capped_sims", "count", "lower"),
    Metric("netsim.job_events_p50", "count", "lower"),
    Metric("netsim.job_events_max", "count", "lower"),
    Metric("netsim.top10_event_share", "share", "lower"),
    Metric("core.evaluations", "count", "higher"),
    Metric("core.batches", "count", "lower"),
    Metric("core.improvements", "count", "higher"),
    Metric("core.rules", "count", "higher"),
    Metric("core.unique_candidate_share", "share", "higher"),
    Metric("core.losing_event_share", "share", "lower"),
    Metric("runner.jobs", "count", "lower"),
    Metric("runner.width", "count", "higher"),
    Metric("host.calib_loops_per_s", "1/s", "higher"),
    Metric("host.wall_raw_s", "s", "lower"),
)

_HARNESS_AND_SPANS = (
    Metric("core.pool_serial_tree_match", "bool", "higher"),
    Metric("runner.job_pickle_bytes", "bytes", "lower"),
    Metric("runner.result_pickle_bytes", "bytes", "lower"),
    Metric("runner.worker_cpu_s", "s", "lower"),
    Metric("runner.idle_share", "share", "lower"),
    Metric("runner.speedup_vs_serial", "x", "higher"),
    Metric("netsim.build_s", "s", "lower"),
    Metric("netsim.run_s", "s", "lower"),
    Metric("netsim.ns_per_event", "ns", "lower"),
    *(Metric(f"netsim.ns_per_event.{cell}", "ns", "lower") for cell in SIM_LONG_CELLS),
    Metric("scenarios.materialize_s", "s", "lower"),
    Metric("core.evaluate_self_s", "s", "lower"),
    Metric("core.search_self_s", "s", "lower"),
    Metric("runner.batch_s", "s", "lower"),
    Metric("runner.self_s", "s", "lower"),
    Metric("experiments.self_s", "s", "lower"),
    Metric("analysis.markdown_s", "s", "lower"),
    Metric("bench.self_s", "s", "lower"),
)

PROFILE_SHARES = (
    "prof.netsim.events",
    "prof.netsim.kernel",
    "prof.netsim.link_queue",
    "prof.netsim.sender_ack",
    "prof.netsim.stats",
    "prof.protocols",
    "prof.core.whisker",
    "prof.core.search",
    "prof.traffic",
    "prof.traces",
    "prof.runner",
    "prof.experiments_analysis",
    "prof.builtins",
    "prof.other",
)

#: Only a ``--trace 1`` run has these (harness-measured runner figures, span
#: self times, cProfile shares); ``null`` in an untraced run's document.
TRACED = (
    *_HARNESS_AND_SPANS,
    *(Metric(name, "share", "lower") for name in PROFILE_SHARES),
    Metric("trace.span_overhead_share", "share", "lower"),
    Metric("trace.profile_overhead_share", "share", "lower"),
)
PER_LAYER = (*EXACT, *TRACED)


def contract() -> dict[str, Any]:
    """The root ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
