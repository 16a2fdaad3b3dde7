#!/usr/bin/env python3
"""Inspect a RemyCC rule table: dump its rules and probe its reactions.

The paper notes that "digging through the dozens of rules in a RemyCC and
figuring out their purpose and function is a challenging job in reverse-
engineering" (§6).  This example makes that job easier: it prints any rule
table — a named one from ``results/remycc/<name>.json``, or any file written
by ``save_remycc`` or by a design run (``examples/train_remycc.py``) — and
shows how the action changes as the congestion signals sweep through
representative values.  It first prints where the table came from (its
``origin``) and, for a designed table, its ``design`` block: the design
problem, the evaluation size, the search shape and how the search went.

Usage::

    python examples/inspect_remycc.py --name delta1
    python examples/inspect_remycc.py --load my_remycc.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.core.memory import Memory
from repro.core.objective import Objective
from repro.core.serialization import (
    REMYCC_DIR,
    load_remycc,
    pretrained_remycc,
    pretrained_tree_names,
)


def describe_range(design_range: dict) -> str:
    """A design range as ``field low-high`` pairs (one value if exact)."""
    parts = []
    for name, value in design_range.items():
        if isinstance(value, dict):
            low, high = value["low"], value["high"]
            parts.append(f"{name} {low:g}" if low == high else f"{name} {low:g}-{high:g}")
        elif value is not None:
            parts.append(f"{name} {value}")
    return ", ".join(parts)


def print_design(name: str, design: dict) -> None:
    """The ``design`` block a design run writes."""
    state = design["state"]
    print(f"Designed as {name!r}:")
    print(f"  range: {describe_range(design['range'])}")
    print(f"  objective: {Objective(**design['objective']).describe()}")
    print(
        f"  specimens: {design['num_specimens']} x {design['sim_duration']:g} s "
        f"(seed {design['seed']})"
    )
    print("  search: " + ", ".join(f"{k}={v}" for k, v in design["search"].items()))
    print(
        f"  {state['evaluations_used']} evaluations, {state['splits']} splits; "
        f"{state['sealed_simulations']} simulations sealed, "
        f"{state['truncated_simulations']} truncated"
    )
    print(
        f"  final score {state['score_history'][-1]:.4f} "
        f"(best {state['best_score']:.4f})"
    )


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
    document = json.loads(Path(args.load or REMYCC_DIR / f"{args.name}.json").read_text())
    print(f"RemyCC {tree.name!r}: {len(tree)} rules, origin {document.get('origin', 'unrecorded')}")
    if "design" in document:
        print_design(tree.name, document["design"])
    print()

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
