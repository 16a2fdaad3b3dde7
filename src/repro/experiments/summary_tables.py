"""§1 summary tables: median speedup and delay reduction of a RemyCC.

The paper's introduction condenses two experiments into tables of, for each
existing protocol, the RemyCC's median-throughput speedup and median
queueing-delay reduction:

* the 15 Mbps dumbbell with eight senders (Figure 4), and
* the Verizon LTE downlink trace with four senders (Figure 7).

:func:`run_summary_table` simply runs the corresponding figure and converts
its summaries into :class:`~repro.analysis.compare.SpeedupRow` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.compare import SpeedupRow, format_speedup_table, speedup_table
from repro.experiments.base import ExperimentResult, SchemeSpec
from repro.experiments.clouds import run_cloud_figure

#: The baselines named in the §1 tables, in the paper's order.
SUMMARY_BASELINES = ("Compound", "NewReno", "Cubic", "Vegas", "Cubic/sfqCoDel", "XCP")


@dataclass
class SummaryTable:
    """One §1-style table: the experiment it came from plus the speedup rows."""

    name: str
    remycc: str
    rows: list[SpeedupRow] = field(default_factory=list)
    experiment: Optional[ExperimentResult] = None

    def row_for(self, baseline: str) -> SpeedupRow:
        for row in self.rows:
            if row.baseline == baseline:
                return row
        raise KeyError(baseline)

    def format(self) -> str:
        return f"== {self.name} ==\n" + format_speedup_table(self.rows, remycc_name=self.remycc)


def run_summary_table(
    figure: int,
    *,
    n_runs: int,
    duration: float = 30.0,
    remy_scheme: str = "Remy d=0.1",
    schemes: Optional[Sequence[SchemeSpec]] = None,
) -> SummaryTable:
    """The §1 table of ``figure`` (4: the dumbbell, 7: the LTE downlink).

    Rows compare ``remy_scheme`` against each of :data:`SUMMARY_BASELINES`
    that ``schemes`` (default: the standard comparison set) runs.
    """
    experiment = run_cloud_figure(figure, n_runs=n_runs, duration=duration, schemes=schemes)
    remy_summary = experiment[remy_scheme]
    baselines = [experiment[b] for b in SUMMARY_BASELINES if b in experiment.summaries]
    return SummaryTable(
        name=f"Summary: {experiment.name} (speedup vs existing protocols)",
        remycc=remy_scheme,
        rows=speedup_table(remy_summary, baselines),
        experiment=experiment,
    )
