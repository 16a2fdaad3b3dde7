"""Run the scheme × path × AQM study and write the ranked markdown tables.

The committed artifact (``results/STUDY.md``) is generated at paper-scale
durations::

    PYTHONPATH=src python tools/run_study.py --workers 0       # all cores

CI's bench job regenerates a smoke-scale copy (``--smoke``) on every run as
an uploaded artifact, so grid regressions show up without paying the
paper-scale cost in the critical path.  The grid itself — which cells, which
schemes, the ranking and frontier extraction — lives in
:mod:`repro.analysis.study`; this tool only parses arguments, picks an
execution backend and writes the file.

Usage::

    PYTHONPATH=src python tools/run_study.py                   # paper scale, serial
    PYTHONPATH=src python tools/run_study.py --smoke           # CI smoke scale
    PYTHONPATH=src python tools/run_study.py --cells fig4-dumbbell8 --out -
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.study import run_study, study_cells
from repro.runner import ProcessPoolBackend, SerialBackend

#: Paper-scale defaults (§5.1 runs simulations of this order).
PAPER_DURATION = 100.0
PAPER_RUNS = 4

#: Smoke-scale defaults for CI: long enough for schemes to differentiate,
#: short enough for the bench job's budget.
SMOKE_DURATION = 8.0
SMOKE_RUNS = 2

DEFAULT_OUT = "results/STUDY.md"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cells",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict the grid to this registered cell (repeatable; "
        "default: every dumbbell/aqm/path cell)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help=f"simulated seconds per run (default {PAPER_DURATION:g}, "
        f"or {SMOKE_DURATION:g} with --smoke)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=None,
        help=f"runs per (cell, scheme) point (default {PAPER_RUNS}, "
        f"or {SMOKE_RUNS} with --smoke)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI scale: short runs, fewer repetitions",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="simulation worker processes (1 = serial, the default; 0 = one "
        "per available CPU)",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT,
        help=f"output markdown path, or '-' for stdout (default {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")

    duration = args.duration
    if duration is None:
        duration = SMOKE_DURATION if args.smoke else PAPER_DURATION
    n_runs = args.runs
    if n_runs is None:
        n_runs = SMOKE_RUNS if args.smoke else PAPER_RUNS

    backend = SerialBackend() if args.workers == 1 else ProcessPoolBackend(args.workers or None)

    cells = args.cells  # None -> the full study grid
    n_cells = len(cells) if cells is not None else len(study_cells())
    print(
        f"study: {n_cells} cells x {n_runs} run(s) x {duration:g}s "
        f"({type(backend).__name__})",
        file=sys.stderr,
    )
    with backend:
        result = run_study(
            cells=cells, n_runs=n_runs, duration=duration, backend=backend
        )
    markdown = result.to_markdown()
    if args.out == "-":
        sys.stdout.write(markdown)
    else:
        with open(args.out, "w") as handle:
            handle.write(markdown)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
