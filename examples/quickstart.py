#!/usr/bin/env python3
"""Quickstart: simulate a few congestion-control schemes on a dumbbell network.

Runs the paper's basic single-bottleneck scenario (the Figure 4 cell: 15 Mbps,
150 ms RTT, eight senders alternating between 100 kB transfers and
half-second pauses) for a handful of schemes — NewReno, Cubic, Vegas and a
pre-built RemyCC — and prints the median per-sender throughput and queueing
delay for each.

Usage::

    python examples/quickstart.py [--duration SECONDS] [--senders N]
"""

from __future__ import annotations

import argparse

from repro.experiments.base import SchemeSpec, remycc_scheme
from repro.experiments.clouds import run_cloud_figure
from repro.scenarios import ProtocolSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=30.0, help="simulated seconds per run")
    parser.add_argument("--senders", type=int, default=8, help="number of contending senders")
    args = parser.parse_args()

    schemes = [
        # A scheme names its protocol by its key in repro.protocols.PROTOCOLS.
        SchemeSpec("NewReno", ProtocolSpec("newreno")),
        SchemeSpec("Cubic", ProtocolSpec("cubic")),
        SchemeSpec("Vegas", ProtocolSpec("vegas")),
        remycc_scheme("delta1", label="RemyCC (d=1)"),
    ]
    result = run_cloud_figure(
        4, n_flows=args.senders, n_runs=1, duration=args.duration, schemes=schemes
    ).run()

    print(result.format_table())
    print()
    print("Higher throughput and lower queueing delay are better; the RemyCC")
    print("should land above the TCP baselines with less queueing than Cubic.")


if __name__ == "__main__":
    main()
