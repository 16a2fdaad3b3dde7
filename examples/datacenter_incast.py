#!/usr/bin/env python3
"""Datacenter scenario: DCTCP versus a RemyCC under incast-style load.

Runs the §5.5 comparison at a configurable scale factor (the paper's full
64-sender, 10 Gbps configuration is expensive in a pure-Python simulator) and
additionally demonstrates the incast workload model: many senders whose
flows start almost simultaneously on a shared epoch grid.

Usage::

    python examples/datacenter_incast.py [--scale 16] [--duration 2.5]
"""

from __future__ import annotations

import argparse
import statistics

from repro.core.serialization import pretrained_remycc
from repro.experiments.datacenter import run_datacenter
from repro.netsim.path import PathSpec
from repro.netsim.simulator import Simulation
from repro.protocols.dctcp import DCTCP
from repro.protocols.remycc import RemyCCProtocol
from repro.traffic.incast import IncastWorkload


def incast_demo(scale: int, duration: float) -> None:
    """Synchronised flow arrivals over a shallow-buffered datacenter link."""
    n_flows = max(2, 16 // scale * 4)
    link_rate = 10e9 / scale
    spec = PathSpec.dumbbell(
        n_flows, rtt=0.004, rate_bps=link_rate, queue="red-dctcp", buffer_packets=200
    )
    protocols = [DCTCP() for _ in range(n_flows)]
    workloads = [
        IncastWorkload.exponential(mean_flow_bytes=2e6 / scale * 16, epoch_seconds=0.05)
        for _ in range(n_flows)
    ]
    # Seed 5, the datacenter cell's.
    result = Simulation(spec, protocols, workloads, duration=duration, seed=5).run()
    tputs = [s.throughput_mbps() for s in result.active_flows()]
    print(
        f"incast demo: {n_flows} DCTCP senders, {link_rate / 1e9:.2f} Gbps, "
        f"median tput {statistics.median(tputs):.1f} Mbps, "
        f"marks {result.queue_marks}, drops {result.queue_drops}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=16, help="divide the paper's size by this factor")
    parser.add_argument("--duration", type=float, default=2.5, help="simulated seconds")
    args = parser.parse_args()

    print(f"datacenter comparison at 1/{args.scale} of the paper's absolute size")
    result = run_datacenter(scale=args.scale, duration=args.duration).run()
    print(result.format_table())
    print()
    incast_demo(args.scale, args.duration)
    print()
    print("The RemyCC used here (results/remycc/datacenter.json) targets the")
    print(f"minimum-potential-delay objective over the datacenter design range "
          f"and has {len(pretrained_remycc('datacenter'))} rules.")


if __name__ == "__main__":
    main()
