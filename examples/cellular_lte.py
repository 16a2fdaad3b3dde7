#!/usr/bin/env python3
"""Cellular scenario: congestion control over a time-varying LTE-like downlink.

Reproduces the structure of the paper's §5.3 experiments: a trace-driven
bottleneck whose deliverable rate swings between a few hundred kbit/s and
tens of Mbit/s, shared by several senders running either a human-designed
TCP or a RemyCC.  Prints the per-scheme medians and whether the RemyCCs land
on the efficient frontier.

Usage::

    python examples/cellular_lte.py [--carrier verizon|att] [--senders N]
"""

from __future__ import annotations

import argparse

from repro.experiments.base import ExperimentResult, SchemeSpec, remycc_scheme, run_cells
from repro.protocols.cubic import Cubic
from repro.protocols.newreno import NewReno
from repro.protocols.vegas import Vegas
from repro.scenarios import TraceSpec, get_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--carrier", choices=("verizon", "att"), default="verizon")
    parser.add_argument("--senders", type=int, default=4)
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    # The registry's §5.3 cell (50 ms RTT, 1000-packet tail-drop buffer,
    # 100 kB flows with 0.5 s mean off time) with the trace re-described to
    # cover the whole run.
    cell = get_scenario("fig7-lte4" if args.carrier == "verizon" else "fig9-att4").override(
        n_flows=args.senders,
        trace=TraceSpec(args.carrier, duration_seconds=args.duration, seed=args.seed),
    )
    trace = cell.network_spec().delivery_trace
    print(
        f"{args.carrier} synthetic trace: {len(trace)} delivery opportunities over "
        f"{args.duration:.0f}s (mean {len(trace) * 1500 * 8 / args.duration / 1e6:.1f} Mbps)"
    )

    schemes = [
        SchemeSpec("NewReno", NewReno),
        SchemeSpec("Cubic", Cubic),
        SchemeSpec("Vegas", Vegas),
        SchemeSpec("Cubic/sfqCoDel", Cubic, queue="sfqcodel"),
        remycc_scheme("delta0.1", label="Remy d=0.1"),
        remycc_scheme("delta10", label="Remy d=10"),
    ]

    # One batch for the whole scheme x run grid; every scheme sees the same
    # per-run seeds.
    [runs] = run_cells(
        [cell], schemes, n_runs=args.runs, duration=args.duration, base_seed=args.seed
    )
    result = ExperimentResult.from_runs(
        f"{args.carrier} LTE trace, n={args.senders}", schemes, runs
    )

    print()
    print(result.format_table())
    print()
    print(
        "efficient frontier (throughput vs queueing delay):",
        ", ".join(result.frontier_names()),
    )


if __name__ == "__main__":
    main()
