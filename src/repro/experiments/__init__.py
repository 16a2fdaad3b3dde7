"""Experiment harnesses: one module per figure/table of the paper's evaluation.

Every harness exposes a ``run_*`` function returning a structured result that
the corresponding benchmark in ``benchmarks/`` prints in the same shape as
the paper's figure or table.  All harnesses accept scaled-down defaults
(fewer runs, shorter simulated durations) so they complete in seconds with a
pure-Python simulator, plus explicit parameters for paper-scale runs.

==============================  ============================================
Module                          Reproduces
==============================  ============================================
``experiments.dumbbell``        Figures 4 and 5 (single-bottleneck dumbbell)
``experiments.convergence``     Figure 6 (sequence plot / convergence)
``experiments.cellular``        Figures 7, 8, 9 (LTE trace-driven links)
``experiments.rtt_fairness``    Figure 10 (RTT unfairness)
``experiments.datacenter``      §5.5 table (DCTCP vs RemyCC)
``experiments.competing``       §5.6 tables (RemyCC vs Compound / Cubic)
``experiments.prior_knowledge`` Figure 11 (1× vs 10× design ranges)
``experiments.summary_tables``  §1 summary tables (speedups vs baselines)
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
