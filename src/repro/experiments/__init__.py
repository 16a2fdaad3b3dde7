"""Experiment harnesses: one module per figure/table of the paper's evaluation.

Every harness exposes a ``run_*`` function returning a structured result, and
``experiments.claims`` holds the paper's claims about each as table rows.  A
harness resolves its registry cell, overrides only the axis its figure
sweeps, and takes the run size (``n_runs``, ``duration``) as options: scaled
down by default so it completes in seconds with a pure-Python simulator,
raised for paper-scale runs.

==============================  ============================================
Module                          Reproduces
==============================  ============================================
``experiments.clouds``          Figures 4, 5 (dumbbell) and 7, 8, 9 (LTE)
``experiments.convergence``     Figure 6 (sequence plot / convergence)
``experiments.rtt_fairness``    Figure 10 (RTT unfairness)
``experiments.datacenter``      §5.5 table (DCTCP vs RemyCC)
``experiments.competing``       §5.6 tables (RemyCC vs Compound / Cubic)
``experiments.prior_knowledge`` Figure 11 (1× vs 10× design ranges)
``experiments.claims``          §1 speedup tables; every claim above as a row
==============================  ============================================
"""

from repro.experiments.base import (
    SchemeSpec,
    remycc_scheme,
    run_cells,
    standard_schemes,
    sweep_seed,
)

__all__ = [
    "SchemeSpec",
    "remycc_scheme",
    "run_cells",
    "standard_schemes",
    "sweep_seed",
]
