#!/usr/bin/env python3
"""Inspect a RemyCC rule table: dump its rules and probe its reactions.

The paper notes that "digging through the dozens of rules in a RemyCC and
figuring out their purpose and function is a challenging job in reverse-
engineering" (§6).  This example makes that job easier: it prints any rule
table — a named one from ``results/remycc/<name>.json``, or any file written
by ``save_remycc`` (for instance by ``examples/train_remycc.py``) — and shows
how the action changes as the congestion signals sweep through
representative values.

Usage::

    python examples/inspect_remycc.py --name delta1
    python examples/inspect_remycc.py --load my_remycc.json
"""

from __future__ import annotations

import argparse

from repro.core.memory import Memory
from repro.core.serialization import load_remycc, pretrained_remycc, pretrained_tree_names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--name",
        default="delta1",
        help=f"named table in results/remycc/ ({', '.join(pretrained_tree_names())})",
    )
    parser.add_argument("--load", help="load this JSON rule table instead of a named one")
    parser.add_argument("--max-rules", type=int, default=20, help="how many rules to print")
    args = parser.parse_args()

    tree = load_remycc(args.load) if args.load else pretrained_remycc(args.name)
    print(f"RemyCC {tree.name!r}: {len(tree)} rules\n")

    print(f"First {args.max_rules} rules (by memory region):")
    for whisker in tree.whiskers()[: args.max_rules]:
        print("  " + whisker.describe())
    if len(tree) > args.max_rules:
        print(f"  ... and {len(tree) - args.max_rules} more\n")

    print("Reaction to increasing queueing (ack_ewma = 2 ms, send_ewma = 2 ms):")
    header = f"{'rtt_ratio':>10s} {'window multiple':>16s} {'window increment':>17s} {'intersend (ms)':>15s}"
    print(header)
    for ratio in (0.0, 1.0, 1.05, 1.1, 1.2, 1.4, 1.8, 2.5, 4.0):
        action = tree.action_for(Memory(2.0, 2.0, ratio))
        print(
            f"{ratio:10.2f} {action.window_multiple:16.3f} "
            f"{action.window_increment:17.2f} {action.intersend_ms:15.3f}"
        )

    print("\nReaction to the ACK rate (rtt_ratio = 1.1):")
    print(f"{'ack_ewma (ms)':>14s} {'intersend (ms)':>15s} {'implied pace (Mbps)':>20s}")
    for ack_ms in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0, 128.0):
        action = tree.action_for(Memory(ack_ms, ack_ms, 1.1))
        pace_mbps = 1500 * 8 / (action.intersend_ms / 1000) / 1e6
        print(f"{ack_ms:14.2f} {action.intersend_ms:15.3f} {pace_mbps:20.1f}")


if __name__ == "__main__":
    main()
