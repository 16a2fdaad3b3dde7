"""§5.6: incremental deployment — a RemyCC competing with Compound or Cubic.

A single 15 Mbps tail-drop bottleneck (150 ms baseline RTT) is shared by one
RemyCC flow and one flow of an existing protocol, with no active queue
management.  The RemyCC used here was designed for round-trip times between
100 ms and 10 s so that it can tolerate a buffer-filling competitor.

Two sweeps reproduce the paper's two tables:

* versus **Compound**: ICSI flow lengths, sweeping the mean off time over
  {200 ms, 100 ms, 10 ms} (the senders' duty cycle);
* versus **Cubic**: exponential flow lengths of mean 100 kB and 1 MB with a
  500 ms mean off time.

Each table row is a mixed-protocol cell — the registry's
``competing-remy-cubic`` with the contender and workload swapped in — and a
whole table is one grid.  The rows share the registry cell's name, so every
row of a table sees the same per-run seeds.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.experiments.base import Grid, Plan, Slice
from repro.netsim.simulator import SimulationResult
from repro.scenarios import ProtocolSpec, get_scenario
from repro.traffic.flowsize import icsi_flow_length_distribution
from repro.traffic.onoff import ByteFlowWorkload


@dataclass
class CompetingRow:
    """Mean throughput of each contender in one setting."""

    setting: str
    remy_mean_mbps: float
    other_mean_mbps: float
    other_name: str


@dataclass
class CompetingResult:
    """One §5.6 table: rows over the swept parameter."""

    rows: list[CompetingRow] = field(default_factory=list)


def _competing_table(
    other_protocol: str,
    other_name: str,
    settings: Sequence[tuple[str, ByteFlowWorkload]],
    n_runs: int,
    duration: float,
    base_seed: Optional[int] = None,
) -> Plan[CompetingResult]:
    """One table: the RemyCC vs one contender, a row per (label, workload)."""
    base_cell = get_scenario("competing-remy-cubic")
    cells = [
        base_cell.override(
            protocols=(ProtocolSpec("remy", tree="coexist"), ProtocolSpec(other_protocol)),
            workloads=(workload,),
        )
        for _setting, workload in settings
    ]

    def fold(grid: Slice) -> CompetingResult:
        def mean_mbps(runs: list[SimulationResult], flow: int) -> float:
            return statistics.fmean(run.flow_stats[flow].throughput_mbps() for run in runs)

        return CompetingResult([
            CompetingRow(setting, mean_mbps(runs, 0), mean_mbps(runs, 1), other_name)
            for (setting, _workload), [runs] in zip(settings, grid)
        ])

    return Plan(Grid(cells, n_runs=n_runs, duration=duration, base_seed=base_seed), fold)


def run_vs_compound(
    off_times_seconds: tuple[float, ...] = (0.200, 0.100, 0.010),
    n_runs: int = 3,
    duration: float = 30.0,
) -> Plan[CompetingResult]:
    """RemyCC vs Compound: ICSI flow lengths, sweeping the mean off time."""
    flow_sizes = icsi_flow_length_distribution(maximum_bytes=20e6)
    settings = [
        (f"off={off * 1000:.0f} ms", ByteFlowWorkload(flow_size=flow_sizes, mean_off_seconds=off))
        for off in off_times_seconds
    ]
    return _competing_table("compound", "Compound", settings, n_runs, duration)


def run_vs_cubic(
    mean_flow_bytes: tuple[float, ...] = (100e3, 1e6),
    n_runs: int = 3,
    duration: float = 30.0,
) -> Plan[CompetingResult]:
    """RemyCC vs Cubic: exponential flow lengths of mean 100 kB and 1 MB."""
    off = get_scenario("competing-remy-cubic").workloads[0].off_distribution
    settings = [
        (
            f"mean={mean_bytes / 1e3:.0f} kB",
            ByteFlowWorkload.exponential(mean_bytes, mean_off_seconds=off.mean()),
        )
        for mean_bytes in mean_flow_bytes
    ]
    # 62, not the cell's 61: this table keeps the randomness its rows were always run on.
    return _competing_table("cubic", "Cubic", settings, n_runs, duration, base_seed=62)
