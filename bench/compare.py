#!/usr/bin/env python3
"""Compare two result documents written by ``bench/run.py --json``.

    python3 bench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two runs of one
commit), ``B`` the change.  For every workload and end-to-end metric it
prints both medians, the ratio B/A, and a verdict against the metric's bound
(``bench/metrics.py``) and the min-max spread of the repetitions:

``worse``       B's median is worse than A's by more than the bound.
``better``      every repetition of B beats every repetition of A, by more
                than A's own spread.
``unresolved``  neither, and the spread of either side is wider than the
                bound — the runs cannot tell "unchanged" from "regressed".
``same``        neither, and the spread is within the bound.

Exact counts and output digests are compared for equality, traced per-layer
numbers are listed with their ratio.  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Sequence

import metrics


def spread(entry: dict[str, Any]) -> float:
    return (entry["max"] - entry["min"]) / entry["value"]


def verdict(metric: metrics.Metric, a: dict[str, Any], b: dict[str, Any]) -> str:
    assert metric.bound is not None
    sign = 1 if metric.better == "lower" else -1
    worsening = sign * (b["value"] - a["value"]) / a["value"]
    if worsening > metric.bound:
        return "worse"
    dominated = all(sign * (y - x) < 0 for x in a["samples"] for y in b["samples"])
    if dominated and -worsening > spread(a):
        return "better"
    if max(spread(a), spread(b)) > metric.bound:
        return "unresolved"
    return "same"


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[str], int]:
    lines = []
    worse = 0
    for key in ("seed", "scale"):
        if a[key] != b[key]:
            lines.append(f"note: {key} differs ({a[key]} vs {b[key]}); counts and digests will too")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        lines.append(f"== {name}")
        for metric in metrics.END_TO_END:
            ea, eb = wa["end_to_end"].get(metric.name), wb["end_to_end"].get(metric.name)
            if ea is None or eb is None:
                continue
            result = verdict(metric, ea, eb)
            worse += result == "worse"
            lines.append(
                f"{name:14s} {metric.name:14s} A {ea['value']:<10.5g} B {eb['value']:<10.5g} {metric.unit:4s}"
                f" B/A {eb['value'] / ea['value']:.3f}  bound {metric.bound:.0%}"
                f"  spread A {spread(ea):.1%} B {spread(eb):.1%}  {result}"
            )
        for side, workload in (("A", wa), ("B", wb)):
            if workload["failed"]:
                lines.append(f"{name:14s} {side} failed {workload['failed']} of {workload['attempted']} operations")
        same_digest = wa["output_digest"] == wb["output_digest"]
        lines.append(f"{name:14s} output_digest  {'identical' if same_digest else 'DIFFERENT'}")
        differing = []
        for metric in metrics.EXACT:
            if metric.name.startswith("host."):
                continue
            va, vb = wa["per_layer"][metric.name]["value"], wb["per_layer"][metric.name]["value"]
            if va != vb:
                differing.append(f"{metric.name} {va} -> {vb}")
        lines.append(f"{name:14s} exact counts   {'identical' if not differing else 'DIFFERENT: ' + '; '.join(differing)}")
        for metric in metrics.TRACED:
            va, vb = wa["per_layer"][metric.name]["value"], wb["per_layer"][metric.name]["value"]
            if va is None or vb is None or (va == 0 and vb == 0):
                continue
            ratio = f"B/A {vb / va:.3f}" if va else "B/A n/a (base 0)"
            lines.append(f"{name:14s} {metric.name:44s} A {va:<12.5g} B {vb:<12.5g} {metric.unit:5s} {ratio}")
    return lines, worse


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    lines, worse = compare(*documents)
    print("\n".join(lines))
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
