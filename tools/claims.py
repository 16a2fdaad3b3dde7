"""Measure every claim of the paper and write ``results/CLAIMS.md``.

Usage (no flags)::

    PYTHONPATH=src python tools/claims.py

Runs the plans of all of ``repro.experiments.claims.HARNESSES`` as one batch on
a process pool and writes one section per harness, with both measured sides of
each of its claims.  The simulations are bit-reproducible (pooled equals
serial) and values print to six significant digits, so CI regenerates the file
and diffs it against the committed copy.  A row of
``XFAIL`` is expected to fail and prints as ``xfail``.  Exits 1 if any other
row fails, or if an ``XFAIL`` row holds.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any

from repro.experiments.base import run_plans
from repro.experiments.claims import CLAIMS, HARNESSES, XFAIL, Side
from repro.runner import ProcessPoolBackend

OUT = Path(__file__).resolve().parent.parent / "results" / "CLAIMS.md"

#: (expected to hold, holds) -> what the row's last column says.
STATUS = {(True, True): "yes", (True, False): "**no**", (False, False): "xfail",
          (False, True): "**holds, but is in XFAIL**"}


def twins(result: Any) -> list[str]:
    """A note when Compound's and NewReno's summaries are bit-identical."""
    summaries = getattr(result, "summaries", {})
    if "Compound" not in summaries or "NewReno" not in summaries:
        return []
    compound, newreno = summaries["Compound"], summaries["NewReno"]
    if (compound.throughputs_mbps, compound.queue_delays_ms) != (
            newreno.throughputs_mbps, newreno.queue_delays_ms):
        return []
    return [
        "Compound's and NewReno's summaries are bit-identical here: no packet is dropped, "
        "so Compound's delay window never opens and both run the same slow-start arithmetic. "
        " A row on one repeats the row on the other: one piece of evidence, not two.",
        "",
    ]


def main() -> int:
    lines = [
        "# The paper's claims, measured",
        "",
        "Generated by `PYTHONPATH=src python tools/claims.py` from",
        "`repro.experiments.claims.CLAIMS`; `tests/test_claims.py` checks the same rows.",
        "A row holds (`yes`) or is one of `XFAIL`, where this scaled-down run disagrees",
        "with the paper (`xfail`).  No row compares a ratio or a throughput with 0.",
    ]
    status = []
    with ProcessPoolBackend() as pool:
        results = run_plans([harness() for harness in HARNESSES.values()], pool)
    for (key, harness), result in zip(HARNESSES.items(), results):
        args = [repr(arg) for arg in harness.args]
        args += [f"{name}={value!r}" for name, value in harness.keywords.items()]
        lines += [
            "",
            f"## `{key}`: `{harness.func.__name__}({', '.join(args)})`",
            "",
            f"n_runs {harness.keywords.get('n_runs', 1)}, "
            f"duration {harness.keywords['duration']:g} s",
            "",
            *twins(result),
            "| id | paper | left | | right | holds |",
            "| --- | --- | --- | :-: | --- | :-: |",
        ]
        for claim in (claim for claim in CLAIMS if claim.harness == key):
            left, right, holds = claim.check(result)
            status.append(STATUS[claim.id not in XFAIL, holds])
            right_name = f"{claim.right.name} = " if isinstance(claim.right, Side) else ""
            lines.append(
                f"| {claim.id} | {claim.ref} | {claim.left.name} = {left:.6g} "
                f"| {claim.relation} | {right_name}{right:.6g} | {status[-1]} |"
            )
    lines += ["", f"{status.count('yes')} hold, {status.count('xfail')} xfail.", ""]
    OUT.write_text("\n".join(lines))
    unexpected = len(status) - status.count("yes") - status.count("xfail")
    print(lines[-2] + (f" {unexpected} rows did not come out as expected." if unexpected else ""))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
