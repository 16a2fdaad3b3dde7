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

from repro.experiments.base import SchemeSpec, remycc_scheme
from repro.experiments.clouds import run_cloud_figure
from repro.scenarios import ProtocolSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--carrier", choices=("verizon", "att"), default="verizon")
    parser.add_argument("--senders", type=int, default=4)
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--runs", type=int, default=2)
    args = parser.parse_args()

    schemes = [
        SchemeSpec("NewReno", ProtocolSpec("newreno")),
        SchemeSpec("Cubic", ProtocolSpec("cubic")),
        SchemeSpec("Vegas", ProtocolSpec("vegas")),
        # Cubic plus the router support it needs: the cell's queue swapped.
        SchemeSpec("Cubic/sfqCoDel", ProtocolSpec("cubic"), queue="sfqcodel"),
        remycc_scheme("delta0.1", label="Remy d=0.1"),
        remycc_scheme("delta10", label="Remy d=10"),
    ]
    # The §5.3 cell of the carrier (Figure 7: Verizon, Figure 9: AT&T): 50 ms
    # RTT, 1000-packet tail-drop buffer, 100 kB flows with 0.5 s mean off time.
    result = run_cloud_figure(
        7 if args.carrier == "verizon" else 9,
        n_flows=args.senders,
        n_runs=args.runs,
        duration=args.duration,
        schemes=schemes,
    ).run()

    print(result.format_table())
    print()
    print(
        "efficient frontier (throughput vs queueing delay):",
        ", ".join(result.frontier_names()),
    )


if __name__ == "__main__":
    main()
