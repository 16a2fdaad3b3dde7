"""Bit-exact determinism fingerprints, driven by the scenario registry.

Two jobs, one tool:

* **Golden maintenance** — ``--update`` reruns every registered scenario cell
  at its canonical ``(duration, seed)`` and rewrites
  ``tests/golden/fingerprints.json``, the file
  ``tests/test_scenario_matrix.py`` compares against.  Do this only when a
  fingerprint change is *legitimate* (a deliberate semantics change, a new
  cell) — never to paper over an unexplained diff.  Review the resulting
  JSON diff cell by cell: a perf-only PR must produce none.

* **Before/after comparison** — run with an output path (no ``--update``)
  before and after a hot-path change; the two files must be identical if the
  change preserved simulation semantics.  Beyond the registry cells this
  mode also covers training-mode evaluation, a split rule tree exercised
  through the octree descent, and two ``run_cells`` grids (a figure harness
  and the multi-bottleneck path cells) — paths the cell matrix alone does
  not reach.

Usage::

    PYTHONPATH=src python tools/fingerprint.py out.json          # full snapshot
    PYTHONPATH=src python tools/fingerprint.py --update          # refresh golden
    PYTHONPATH=src python tools/fingerprint.py --update --cells fig4-dumbbell8
    # (repeat --cells to update several cells; merges into the golden file)
"""

import argparse
import json
import sys

from repro.scenarios import (
    cell_fingerprint,
    dump_golden,
    iter_scenarios,
    simulation_fingerprint,
)


def cells_fingerprint(names=None) -> dict:
    """Fingerprint of every (or the named subset of) registered cells."""
    return {cell.name: cell_fingerprint(cell) for cell in iter_scenarios(names)}


def extras_fingerprint() -> dict:
    """Determinism cases beyond the scenario matrix (training, split trees,
    a figure harness and a path-cell grid through ``run_cells``)."""
    from repro.core.config import ConfigRange, ParameterRange
    from repro.core.evaluator import Evaluator, EvaluatorSettings
    from repro.core.memory import Memory
    from repro.core.objective import Objective
    from repro.core.serialization import pretrained_remycc
    from repro.analysis.summary import summarize_runs
    from repro.core.whisker_tree import WhiskerTree
    from repro.experiments.base import SchemeSpec, run_cells
    from repro.experiments.clouds import run_cloud_figure
    from repro.netsim.path import PathSpec
    from repro.netsim.simulator import Simulation
    from repro.protocols.remycc import RemyCCProtocol
    from repro.scenarios import ProtocolSpec

    fp = {}

    # Training-mode evaluation: scores and per-whisker use counts.
    evaluator = Evaluator(
        ConfigRange(
            link_speed_bps=ParameterRange.exact(4e6),
            rtt_seconds=ParameterRange.exact(0.08),
            n_senders=ParameterRange.exact(2),
            mean_on_seconds=ParameterRange.exact(2.0),
            mean_off_seconds=ParameterRange.exact(1.0),
        ),
        Objective.proportional(1.0),
        EvaluatorSettings(num_specimens=2, sim_duration=2.0, seed=1),
    )
    t = WhiskerTree()
    res = evaluator.evaluate(t, training=True)
    fp["evaluator-training"] = {
        "score": repr(res.score),
        "specimen_scores": [repr(s) for s in res.specimen_scores],
        "use_counts": [w.use_count for w in t.whiskers()],
    }

    # A split tree exercised through the octree descent.
    split_tree = pretrained_remycc("delta10")
    w = split_tree.find(Memory(1.0, 1.0, 1.2))
    for i in range(40):
        w.use(Memory(1.0 + i * 0.01, 1.0, 1.2))
    split_tree.split_whisker(w)
    spec = PathSpec.dumbbell(rtt=0.05, rate_bps=10e6, buffer_packets=120)
    sim = Simulation(
        spec,
        [RemyCCProtocol(split_tree, training=True) for _ in range(2)],
        None,
        duration=3.0,
        seed=3,
    )
    fp["remy-split-tree"] = simulation_fingerprint(sim.run())
    fp["remy-split-tree"]["use_counts"] = [w.use_count for w in split_tree.whiskers()]

    # Figure-style harness (the sender-count override, scheme fan-out, the
    # ExperimentResult fold).
    schemes = [
        SchemeSpec("NewReno", ProtocolSpec("newreno")),
        SchemeSpec("Vegas", ProtocolSpec("vegas")),
    ]
    result = run_cloud_figure(4, n_flows=3, n_runs=2, duration=3.0, schemes=schemes)
    fp["figure4-mini"] = {
        name: {
            "tputs": [repr(v) for v in summary.throughputs_mbps],
            "delays": [repr(v) for v in summary.queue_delays_ms],
        }
        for name, summary in result.summaries.items()
    }

    # Multi-cell grid (multi-bottleneck and congested-reverse topologies
    # through the scheme/backend job path).
    cells = ["parking-lot-2bn", "reverse-ack-congestion"]
    grid = run_cells(cells, schemes, n_runs=2, duration=1.5)
    fp["path-sweep-mini"] = {}
    for cell, cell_runs in zip(cells, grid):
        fp["path-sweep-mini"][cell] = {}
        for scheme, runs in zip(schemes, cell_runs):
            summary = summarize_runs(scheme.name, runs)
            fp["path-sweep-mini"][cell][scheme.name] = {
                "tputs": [repr(v) for v in summary.throughputs_mbps],
                "delays": [repr(v) for v in summary.queue_delays_ms],
            }
    return fp


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("out", nargs="?", help="write the snapshot to this path")
    parser.add_argument(
        "--update",
        action="store_true",
        help="regenerate the committed golden file (tests/golden/fingerprints.json)",
    )
    parser.add_argument(
        "--cells",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to this registered cell (repeatable; default: all). "
        "With --update, the named fingerprints are merged into the existing "
        "golden file rather than replacing it",
    )
    args = parser.parse_args()

    if args.update:
        cells = cells_fingerprint(args.cells)
        if args.cells is not None:
            # Partial update: merge into the existing golden set.
            from repro.scenarios import load_golden

            merged = load_golden()
            merged.update(cells)
            cells = merged
        path = dump_golden(cells)
        print(f"wrote {path} ({len(cells)} cells)")
        return 0

    fp = {"cells": cells_fingerprint(args.cells)}
    if args.cells is None:
        fp.update(extras_fingerprint())
    out = json.dumps(fp, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
        print(f"wrote {args.out} ({len(out)} bytes)")
    else:
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
