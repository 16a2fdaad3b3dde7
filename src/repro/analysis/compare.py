"""Median speedup / delay-reduction tables.

The paper's introduction summarises the dumbbell and LTE experiments as, for
each existing protocol, the RemyCC's median-throughput speedup ("2.1×") and
median-queueing-delay reduction ("2.7×").  These helpers build the same rows
from :class:`~repro.analysis.summary.SchemeSummary` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.summary import SchemeSummary


@dataclass(frozen=True)
class SpeedupRow:
    """One row of a §1-style summary table."""

    baseline: str
    median_speedup: float
    median_delay_reduction: float


def speedup_table(
    remycc: SchemeSummary, baselines: Sequence[SchemeSummary]
) -> list[SpeedupRow]:
    """Speedup/delay-reduction of ``remycc`` relative to each baseline scheme.

    A delay reduction below 1.0 means the baseline had *lower* delay (the
    paper marks such entries with a down-arrow, e.g. Vegas on the LTE trace).
    """
    remy_tput = remycc.median_throughput_mbps()
    remy_delay = remycc.median_queue_delay_ms()
    rows = []
    for baseline in baselines:
        base_tput = baseline.median_throughput_mbps()
        base_delay = baseline.median_queue_delay_ms()
        speedup = remy_tput / base_tput if base_tput > 0 else float("inf")
        reduction = base_delay / remy_delay if remy_delay > 0 else float("inf")
        rows.append(
            SpeedupRow(
                baseline=baseline.scheme,
                median_speedup=speedup,
                median_delay_reduction=reduction,
            )
        )
    return rows
