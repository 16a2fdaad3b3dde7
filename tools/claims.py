"""Measure every claim of the paper and write ``results/CLAIMS.md``.

Usage (no flags)::

    PYTHONPATH=src python tools/claims.py

Runs each harness of ``repro.experiments.claims.HARNESSES`` once and writes
one section per call, with both measured sides of each of its claims.  The
simulations are bit-reproducible and values print to six significant digits,
so CI regenerates the file and diffs it against the committed copy.  Exits 1
if any claim fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments.claims import CLAIMS, HARNESSES, Side

OUT = Path(__file__).resolve().parent.parent / "results" / "CLAIMS.md"


def main() -> int:
    lines = [
        "# The paper's claims, measured",
        "",
        "Generated by `PYTHONPATH=src python tools/claims.py` from",
        "`repro.experiments.claims.CLAIMS`; `tests/test_claims.py` checks the same rows.",
    ]
    failed = 0
    for key, harness in HARNESSES.items():
        args = [repr(arg) for arg in harness.args]
        args += [f"{name}={value!r}" for name, value in harness.keywords.items()]
        lines += [
            "",
            f"## `{key}`: `{harness.func.__name__}({', '.join(args)})`",
            "",
            f"n_runs {harness.keywords.get('n_runs', 1)}, "
            f"duration {harness.keywords['duration']:g} s",
            "",
            "| id | paper | left | | right | holds |",
            "| --- | --- | --- | :-: | --- | :-: |",
        ]
        result = harness()
        for claim in (claim for claim in CLAIMS if claim.harness == key):
            left, right, holds = claim.check(result)
            failed += not holds
            right_name = f"{claim.right.name} = " if isinstance(claim.right, Side) else ""
            lines.append(
                f"| {claim.id} | {claim.ref} | {claim.left.name} = {left:.6g} "
                f"| {claim.relation} | {right_name}{right:.6g} | {'yes' if holds else '**no**'} |"
            )
    lines += ["", f"{len(CLAIMS) - failed} of {len(CLAIMS)} claims hold.", ""]
    OUT.write_text("\n".join(lines))
    print(lines[-2])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
