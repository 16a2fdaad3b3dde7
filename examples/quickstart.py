#!/usr/bin/env python3
"""Quickstart: simulate a few congestion-control schemes on a dumbbell network.

Runs the paper's basic single-bottleneck scenario (15 Mbps, 150 ms RTT, eight
senders alternating between 100 kB transfers and half-second pauses) for a
handful of schemes — NewReno, Cubic, Vegas and a pre-built RemyCC — and
prints the median per-sender throughput and queueing delay for each.

Usage::

    python examples/quickstart.py [--duration SECONDS] [--senders N]
"""

from __future__ import annotations

import argparse

from repro.analysis.summary import SchemeSummary, format_summary_table
from repro.core.serialization import pretrained_remycc
from repro.netsim.network import NetworkSpec
from repro.netsim.simulator import Simulation
from repro.protocols.cubic import Cubic
from repro.protocols.newreno import NewReno
from repro.protocols.remycc import RemyCCProtocol
from repro.protocols.vegas import Vegas
from repro.traffic.onoff import ByteFlowWorkload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=30.0, help="simulated seconds per run")
    parser.add_argument("--senders", type=int, default=8, help="number of contending senders")
    parser.add_argument("--seed", type=int, default=1, help="random seed")
    args = parser.parse_args()

    spec = NetworkSpec(
        link_rate_bps=15e6,
        rtt=0.150,
        n_flows=args.senders,
        queue="droptail",
        buffer_packets=1000,
    )

    remy_tree = pretrained_remycc("delta1")
    schemes = [
        ("NewReno", NewReno),
        ("Cubic", Cubic),
        ("Vegas", Vegas),
        ("RemyCC (d=1)", lambda: RemyCCProtocol(remy_tree)),
    ]

    summaries = []
    for name, factory in schemes:
        protocols = [factory() for _ in range(args.senders)]
        workloads = [
            ByteFlowWorkload.exponential(mean_flow_bytes=100e3, mean_off_seconds=0.5)
            for _ in range(args.senders)
        ]
        result = Simulation(
            spec, protocols, workloads, duration=args.duration, seed=args.seed
        ).run()
        summary = SchemeSummary(name)
        summary.add_result(result)
        summaries.append(summary)
        print(f"ran {name:15s} ({result.events_processed} simulator events)")

    print()
    print(format_summary_table(summaries))
    print()
    print("Higher throughput and lower queueing delay are better; the RemyCC")
    print("should land above the TCP baselines with less queueing than Cubic.")


if __name__ == "__main__":
    main()
