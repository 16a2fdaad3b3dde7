"""Exact work counts for the packet path: events, Python calls and opcodes.

``sys.settrace`` with opcode events counts inside ``Simulation.run()`` alone,
per simulated second over a 5 s slice of each named registry cell (none named:
the benchmark's six ``sim-long`` cells, and its design run per evaluation).
The counts repeat exactly, where timing on a shared host misses a few percent.
Events by kind are the frames the dispatch loop calls; less the RTO re-checks
``uncount_event`` takes back, they must equal ``events_processed``::

    PYTHONPATH=src python tools/count.py [CELL ...]           # + the top five functions
    PYTHONPATH=src python tools/count.py --kernels CELL ...   # + _lanes/_eager = False
    PYTHONPATH=src python tools/count.py --compare ../parent  # in two fresh processes

An opcode is not a nanosecond: a C call (``heappush``) is one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Callable, Optional

from repro.core import Evaluator, Objective, OptimizerSettings, RemyOptimizer, WhiskerTree
from repro.core.config import general_purpose_range
from repro.core.evaluator import EvaluatorSettings
from repro.netsim import EventScheduler, Simulation
from repro.runner import SerialBackend
from repro.scenarios import get_scenario, scenario_names

#: ``bench/metrics.py``'s ``SIM_LONG_CELLS``, the cells ``netsim.ns_per_event.<cell>`` times.
DEFAULT_CELLS = ("bench-newreno-droptail", "bench-remy-droptail", "bench-remy-training",
                 "bench-newreno-sfqcodel", "bench-newreno-twohop", "fig7-lte4")
SLICE = 5.0  # simulated seconds per cell
ROOT = Path(__file__).resolve().parent.parent
#: ``--compare``'s child: ``measure`` with ``argv[1]`` (a tree's ``src``) first on the path.
CHILD = ("import json, sys; sys.path[:0] = sys.argv[1:3]; from tools.count import measure; "
         "print(json.dumps(measure(*json.loads(sys.argv[3]))))")


class LanesOff(Simulation):
    _lanes = False


class EagerOff(Simulation):
    _eager = False


def count(drive: Callable[[], float]) -> dict[str, float]:
    """Counts inside every ``Simulation.run()`` of ``drive``, per unit it returns."""
    loop, uncount = EventScheduler.run_until.__code__, EventScheduler.uncount_event.__code__
    plain_run = Simulation.run
    #: Per code object (hashed once per call): calls, opcodes, frames the loop called.
    tallies: dict[CodeType, list[int]] = {}
    events = 0

    def on_call(frame: FrameType, event: str, arg: Any) -> Callable[..., Any]:
        tally = tallies.setdefault(frame.f_code, [0, 0, 0])
        tally[0] += 1
        if frame.f_back is not None and frame.f_back.f_code is loop:
            tally[2] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def on_opcode(frame: FrameType, event: str, arg: Any) -> Callable[..., Any]:
            if event == "opcode":
                tally[1] += 1
            return on_opcode
        return on_opcode

    def traced_run(simulation: Simulation) -> Any:
        nonlocal events
        sys.settrace(on_call)
        result = plain_run(simulation)
        sys.settrace(None)
        events += result.events_processed
        return result

    Simulation.run = traced_run  # type: ignore[method-assign]
    try:
        per = drive()
    finally:
        sys.settrace(None)
        Simulation.run = plain_run  # type: ignore[method-assign]
    calls, opcodes, frames = (sum(tally[i] for tally in tallies.values()) for i in range(3))
    uncounted = tallies.get(uncount, [0])[0]
    if frames - uncounted != events:
        raise SystemExit(f"{frames} frames less {uncounted} re-checks are not {events} events")
    row = {"events": events / per, "calls": calls / per, "opcodes": opcodes / per}
    for code, (_, ops, dispatched) in tallies.items():
        for kind, n in (("events", dispatched), ("opcodes", ops)):
            if n:
                key = f"{kind}: {code.co_qualname}"
                row[key] = row.get(key, 0.0) + n / per
    return row


def run_cell(name: str, sim_class: type[Simulation]) -> float:
    cell = get_scenario(name)
    sim_class(cell.network, cell.make_protocols(), cell.make_workloads(),
              duration=SLICE, seed=cell.seed).run()
    return SLICE


def run_design() -> float:
    """The benchmark's ``design-serial`` run at seed 0; returns its evaluations."""
    optimizer = RemyOptimizer(
        Evaluator(general_purpose_range(), Objective.proportional(1.0),
                  EvaluatorSettings(num_specimens=2, sim_duration=2.0, seed=0), SerialBackend()),
        tree=WhiskerTree(name="bench"),
        settings=OptimizerSettings(epochs_per_split=1, max_epochs=2, max_evaluations=105,
                                   candidate_magnitudes=1))
    optimizer.optimize()
    return optimizer.state.evaluations_used


def measure(cells: list[str], kernels: bool) -> dict[str, dict[str, float]]:
    """A row per cell (and per reference), then the design row if no cell is named."""
    variants = {"": Simulation, " lanes-off": LanesOff, " eager-off": EagerOff}
    rows = {cell + suffix: count(lambda: run_cell(cell, sim_class))
            for cell in cells or DEFAULT_CELLS
            for suffix, sim_class in list(variants.items())[: 3 if kernels else 1]}
    if not cells:
        rows["design"] = count(run_design)
    return rows


def show(name: str, row: dict[str, float], parent: Optional[dict[str, float]]) -> None:
    """Print one row; with ``parent``, change / parent in place of each number."""
    print(f"{name}: {'change / parent, ' if parent else ''}per "
          f"{'evaluation' if name == 'design' else 'simulated second'}")
    kinds = sorted((key for key in {**(parent or {}), **row} if key.startswith("events: ")),
                   key=lambda key: (-row.get(key, 0.0), key))
    top = sorted((key for key in row if key.startswith("opcodes: ")),
                 key=lambda key: (-row[key], key))[:5]
    for key in ["events", "calls", "opcodes", *kinds, *top]:
        if parent is None:
            value = f"{row[key]:14,.0f}"
        else:  # a kind the change lost reads 0.000
            value = f"{row.get(key, 0.0) / parent[key]:14.3f}" if key in parent else f"{'new':>14}"
        share = f"  {row[key] / row['opcodes']:6.1%}" if key in top else ""
        print(f"  {key:60} {value}{share}")


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cells", nargs="*", help="registry cells (default: sim-long's, design)")
    parser.add_argument("--compare", type=Path, metavar="TREE", help="change / parent vs TREE")
    parser.add_argument("--kernels", action="store_true", help="add lanes-off and eager-off runs")
    args = parser.parse_args(argv)
    unknown = [cell for cell in args.cells if cell not in scenario_names()]
    if unknown:
        parser.error(f"unknown cell {unknown[0]!r}; the registry: {', '.join(scenario_names())}")
    if args.compare is None:
        rows, parents = measure(args.cells, args.kernels), {}
    else:
        argv = [str(ROOT), json.dumps([args.cells, args.kernels])]
        sides = [subprocess.Popen([sys.executable, "-c", CHILD, f"{tree}/src", *argv], text=True,
                                  stdout=subprocess.PIPE) for tree in (args.compare, ROOT)]
        parents, rows = (json.loads(side.communicate()[0] or "{}") for side in sides)
        if any(side.returncode for side in sides):
            raise SystemExit("counting failed in a child process (its error is above)")
    for name, row in rows.items():
        show(name, row, parents.get(name))
    for cell in (args.cells or DEFAULT_CELLS) if args.kernels else ():
        lane, off = ({key: n for key, n in rows[name].items() if key.startswith("events")}
                     for name in (cell, f"{cell} lanes-off"))
        if lane != off:
            raise SystemExit(f"{cell}: the lanes-off run's events by kind differ from the lane's")


if __name__ == "__main__":
    main()
