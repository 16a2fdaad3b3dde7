"""cProfile harness over registered scenario cells.

Future performance PRs should start from numbers, not hunches: this tool
profiles any cell of the scenario registry by name, built at a 5-second
measuring duration.  The ``bench-*`` cells and ``fig7-lte4`` are the ones
``bench/``'s ``sim-long`` workload times, so a hot spot seen here is a hot
spot in ``netsim.ns_per_event.<cell>``.

Usage::

    PYTHONPATH=src python tools/profile_hotpath.py                  # default cases
    PYTHONPATH=src python tools/profile_hotpath.py bench-remy-droptail  # one cell
    PYTHONPATH=src python tools/profile_hotpath.py --sort cumtime --limit 30 ...
    PYTHONPATH=src python tools/profile_hotpath.py --dump /tmp/out  # .pstats per case
    PYTHONPATH=src python tools/profile_hotpath.py --compare-kernels  # dumbbell, path, trace

The profiler sees what every caller runs: a uniform-RTT dumbbell posts its
one-way hand-offs on the scheduler's constant-delay lane.
``--compare-kernels`` skips the profiler entirely and times each case
(default: one dumbbell, one path and one trace-driven case) with the lane
and on the heap only (the same closures with the lane left empty,
``Simulation._lanes = False``), in interleaved paired repetitions
(alternating rep by rep, reporting the median of paired ratios, which
cancels machine-load drift), printing the lane-vs-heap speedup (the
``lanes`` columns).  Only the dumbbell has a lane to ride, so the path and
trace ratios measure noise around x1.00.

Dumped ``.pstats`` files can be explored interactively with
``python -m pstats /tmp/out/bench-newreno-droptail.pstats`` or visualized with
snakeviz (not bundled).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import statistics
import sys
import time
from pathlib import Path

from repro.netsim.simulator import Simulation
from repro.scenarios import get_scenario

DEFAULT_CASES = [
    "bench-newreno-droptail",
    "bench-newreno-codel",
    "bench-newreno-twohop",
    "bench-remy-droptail",
    "bench-remy-training",
]

#: ``--compare-kernels`` defaults: a lane topology (dumbbell) and the two
#: heap-only shapes (multi-hop path, trace-driven link).
COMPARE_CASES = ["bench-newreno-droptail", "bench-newreno-twohop", "fig7-lte4"]


class HeapOnlySimulation(Simulation):
    """The same closures with the scheduler's constant-delay lane left empty."""

    _lanes = False


def build_simulation(case: str, sim_class: type[Simulation] = Simulation) -> Simulation:
    """The registered cell ``case`` at the 5-second measuring duration."""
    try:
        cell = get_scenario(case)
    except KeyError as error:  # the message lists scenario_names()
        raise SystemExit(error.args[0]) from None
    return sim_class(
        cell.network, cell.make_protocols(), cell.make_workloads(),
        duration=5.0, seed=cell.seed,
    )


def profile_case(case: str, sort: str, limit: int, dump_dir: Path | None) -> None:
    simulation = build_simulation(case)
    profiler = cProfile.Profile()
    profiler.enable()
    result = simulation.run()
    profiler.disable()

    print(f"\n{'=' * 72}")
    print(f"case {case}: {result.events_processed} events")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(sort).print_stats(limit)
    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)
        out = dump_dir / f"{case}.pstats"
        stats.dump_stats(out)
        print(f"dumped {out}")


def _timed_run(case: str, sim_class: type[Simulation]) -> tuple[float, int]:
    """(seconds, events) for one fresh build-and-run of ``case``."""
    simulation = build_simulation(case, sim_class)
    start = time.perf_counter()
    result = simulation.run()
    return time.perf_counter() - start, result.events_processed


def compare_kernels(case: str, reps: int) -> None:
    """Interleaved paired timing: lanes vs heap events/sec for ``case``."""
    # Alternate the two sides rep by rep so slow machine phases hit both
    # sides equally, then take the median of the per-pair ratios.
    ratios = []
    heap_best = float("inf")
    lanes_best = float("inf")
    events = 0
    for _ in range(reps):
        heap_s, events = _timed_run(case, HeapOnlySimulation)
        lanes_s, lanes_events = _timed_run(case, Simulation)
        if lanes_events != events:
            raise SystemExit(
                f"{case}: lanes-vs-heap parity violation — the heap ran {events} "
                f"events, the lanes {lanes_events}"
            )
        ratios.append(heap_s / lanes_s)
        heap_best = min(heap_best, heap_s)
        lanes_best = min(lanes_best, lanes_s)
    print(
        f"{case}: {events} events | heap {events / heap_best:10.0f} ev/s"
        f" | lanes {events / lanes_best:10.0f} ev/s"
        f" | lanes speedup x{statistics.median(ratios):.2f}"
        f" (median of {reps} paired reps)"
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "cases",
        nargs="*",
        help=f"registered cells to profile (default: {' '.join(DEFAULT_CASES)}; "
        f"with --compare-kernels: {' '.join(COMPARE_CASES)})",
    )
    parser.add_argument(
        "--sort",
        default="tottime",
        help="pstats sort key (tottime, cumtime, ncalls, ...; default tottime)",
    )
    parser.add_argument(
        "--limit", type=int, default=25, help="rows to print per case (default 25)"
    )
    parser.add_argument(
        "--dump",
        type=Path,
        default=None,
        metavar="DIR",
        help="also dump a .pstats file per case into DIR",
    )
    parser.add_argument(
        "--compare-kernels",
        action="store_true",
        help="instead of profiling, time each case on the heap and with the lane "
        "(interleaved paired reps) and print the speedup",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=5,
        help="paired repetitions per case for --compare-kernels (default 5)",
    )
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error(f"--reps must be at least 1, got {args.reps}")
    for case in args.cases or (COMPARE_CASES if args.compare_kernels else DEFAULT_CASES):
        if args.compare_kernels:
            compare_kernels(case, args.reps)
        else:
            profile_case(case, args.sort, args.limit, args.dump)


if __name__ == "__main__":
    main()
