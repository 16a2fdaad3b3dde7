#!/usr/bin/env python3
"""Run the Remy design procedure (§4.3) and save the resulting RemyCC.

This drives the actual optimizer — specimen sampling, greedy per-rule action
improvement and octree splitting — over one named design problem, writing
the rule table to JSON so it can be loaded into any experiment with
:func:`repro.core.serialization.load_remycc`.  ``--table NAME`` picks the
problem: a key of :data:`repro.core.config.TABLES`, which maps each named
RemyCC under ``results/remycc/`` to its design range and objective.  The
file is the table ``remy-NAME`` with ``"origin": "designed"`` and a
``design`` block that loading ignores: the evaluator settings, objective,
drawn specimens and their seed schedule, the range, the search shape, and
the search state with its score history.  Nothing in it depends on the
backend or the clock, so serial and pooled runs write the same bytes.

The defaults are laptop-scale (minutes); the paper's evaluations are
``--specimens 16 --sim-duration 100`` (CPU-days in pure Python).
``--workers N`` fans the specimen and candidate-neighbourhood simulations
out over N worker processes, the way the paper's design runs used many
cores; ``--workers 1`` (the default) runs them in this process.  The
designed tree is the same at every width.  Between two splits no rule table
is simulated twice: the evaluation count printed at the end is what the
budget was charged, and says how much of it was remembered.

The table is also the design's checkpoint: it is written atomically at
every epoch boundary, and ``--resume`` continues from ``--output``
bit-identically after an interruption — the resumed run's final tree and
score history match an uninterrupted run exactly (it starts with an empty
memo, so it may simulate more and remember less).  The budget flags still
apply on ``--resume``, so a finished design grows by raising them; a budget
the file has already spent is refused.  The pool itself survives a dead
worker: a broken pool is rebuilt once, and if it breaks again the batch
finishes in this process (with a warning); a job that raises stops the run
with its own error, naming the job.

Usage::

    python examples/train_remycc.py --table delta1 --output my_remycc.json
    python examples/train_remycc.py --table 1x \
        --output results/remycc/1x.json       # replace a named table
    python examples/train_remycc.py --workers 8 --max-evaluations 1000
    python examples/train_remycc.py --table delta1 --workers 8 \
        --output my_remycc.json --resume      # ... continue after a crash
"""

from __future__ import annotations

import argparse
import time
from dataclasses import replace

from repro.core.config import TABLES
from repro.core.evaluator import Evaluator, EvaluatorSettings
from repro.core.optimizer import OptimizerSettings, RemyOptimizer
from repro.core.whisker_tree import WhiskerTree
from repro.runner import ProcessPoolBackend, SerialBackend


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--table",
        choices=sorted(TABLES),
        default="delta1",
        help="the design problem (range and objective) of this named RemyCC",
    )
    parser.add_argument(
        "--output",
        default="remycc.json",
        help="where to save the rule table, at every epoch boundary",
    )
    parser.add_argument("--specimens", type=int, default=3, help="network specimens per evaluation")
    parser.add_argument("--sim-duration", type=float, default=6.0, help="seconds simulated per specimen")
    parser.add_argument("--max-epochs", type=int, default=4, help="greedy epochs to run")
    parser.add_argument("--max-evaluations", type=int, default=250, help="evaluation budget")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="simulation worker processes (1 = serial; 0 = one per available "
        "CPU; the designed tree is the same at every width)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the search from --output instead of starting fresh "
        "(budget flags still apply, so a finished run can be extended)",
    )
    args = parser.parse_args()

    evaluator_settings = EvaluatorSettings(
        num_specimens=args.specimens, sim_duration=args.sim_duration, seed=args.seed
    )

    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    backend = SerialBackend() if args.workers == 1 else ProcessPoolBackend(args.workers or None)

    design_range, objective = TABLES[args.table]
    evaluator = Evaluator(design_range, objective, evaluator_settings, backend=backend)

    def progress(message, state):
        print(
            f"[epoch {state.global_epoch} evals {state.evaluations_used:4d} "
            f"best {state.best_score:8.4f}] {message}"
        )

    if args.resume:
        optimizer = RemyOptimizer.resume_from_checkpoint(
            args.output, evaluator, progress=progress
        )
        # The search shape (split cadence, neighbourhood) comes from the
        # file; the CLI budget flags still apply so a finished run can be
        # extended with a larger --max-epochs / --max-evaluations.  One it
        # has already spent would run nothing and rewrite the file's search.
        state = optimizer.state
        if state.evaluations_used >= args.max_evaluations:
            parser.error(
                f"{args.output} has already used {state.evaluations_used} "
                f"evaluations; raise --max-evaluations above that to extend it"
            )
        if state.global_epoch >= args.max_epochs:
            parser.error(
                f"{args.output} has already run {state.global_epoch} epochs; "
                "raise --max-epochs above that to extend it"
            )
        optimizer.settings = replace(
            optimizer.settings,
            max_epochs=args.max_epochs,
            max_evaluations=args.max_evaluations,
        )
        print(
            f"resumed from {args.output}: epoch {state.global_epoch}, "
            f"{state.evaluations_used} evaluations used, "
            f"{len(optimizer.tree)} rules"
        )
    else:
        optimizer = RemyOptimizer(
            evaluator,
            tree=WhiskerTree(name=f"remy-{args.table}"),
            settings=OptimizerSettings(
                max_epochs=args.max_epochs,
                max_evaluations=args.max_evaluations,
                candidate_magnitudes=1,
                epochs_per_split=2,
            ),
            progress=progress,
            checkpoint_path=args.output,
        )

    print(f"designing {args.table}: {objective.describe()}")
    print(f"design range: {len(evaluator.specimens)} specimens, e.g. {evaluator.specimens[0].describe()}")
    print(f"execution backend: {backend!r}")
    start = time.time()
    try:
        tree = optimizer.optimize()
    finally:
        backend.close()
    elapsed = time.time() - start

    print()
    print(tree.describe())
    print()
    print(
        f"finished in {elapsed:.3f}s: {optimizer.state.evaluations_used} evaluations "
        f"scored, {optimizer.state.remembered_evaluations} of them remembered, not "
        f"re-simulated; {optimizer.state.improvements} action improvements, "
        f"{optimizer.state.splits} splits, {len(tree)} rules"
    )
    print(
        f"simulations: {optimizer.state.sealed_simulations} sealed a drowned "
        f"bottleneck (scores exact), {optimizer.state.truncated_simulations} "
        "truncated by the event cap (scores cover a prefix)"
    )
    print(f"saved rule table to {args.output}")


if __name__ == "__main__":
    main()
