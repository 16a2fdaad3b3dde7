"""§5.5: the datacenter comparison of DCTCP against a RemyCC.

The paper simulates 64 senders sharing a 10 Gbps link with a 4 ms RTT; each
sender transfers 20 MB on average (exponentially distributed) with a mean off
time of 100 ms.  DCTCP runs over an ECN-marking RED gateway; the RemyCC
(designed for the minimum-potential-delay objective, -1/throughput) runs over
a 1000-packet tail-drop queue.  The paper reports the mean and median
per-flow throughput and RTT.

A 10 Gbps packet-level simulation is ~800k packets per simulated second; to
keep the default run affordable in pure Python the harness exposes a
``scale`` factor that divides the link rate, sender count and flow size
together (which preserves the per-flow bandwidth share and the queueing
dynamics that drive the comparison).  ``scale=1`` reproduces the paper's
exact parameters.

The registry cell (pinned at 1/32 scale) is re-scaled via ``override`` and
the RemyCC row derives from it by swapping the queue and protocol set; both
rows are one grid.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.experiments.base import Grid, Plan, Slice
from repro.netsim.simulator import SimulationResult
from repro.scenarios import ProtocolSpec, get_scenario
from repro.traffic.onoff import ByteFlowWorkload


@dataclass
class DatacenterRow:
    """One row of the §5.5 results table."""

    scheme: str
    mean_throughput_mbps: float
    median_throughput_mbps: float
    mean_rtt_ms: float
    median_rtt_ms: float

    def format(self) -> str:
        return (
            f"{self.scheme:22s} tput: {self.mean_throughput_mbps:8.1f}, "
            f"{self.median_throughput_mbps:8.1f} Mbps   rtt: {self.mean_rtt_ms:6.2f}, "
            f"{self.median_rtt_ms:6.2f} ms"
        )


@dataclass
class DatacenterResult:
    """Both rows of the §5.5 table plus the scenario parameters."""

    dctcp: DatacenterRow
    remycc: DatacenterRow
    scale: int
    n_flows: int
    link_rate_bps: float

    def format_table(self) -> str:
        header = f"== Datacenter (scale 1/{self.scale}): {self.n_flows} senders, {self.link_rate_bps / 1e9:.2f} Gbps =="
        return "\n".join([header, self.dctcp.format(), self.remycc.format()])


def _summarise(scheme: str, result: SimulationResult) -> DatacenterRow:
    flows = [s for s in result.flow_stats if s.on_time > 0 and s.rtt_count > 0]
    tputs = [s.throughput_mbps() for s in flows] or [0.0]
    rtts = [s.avg_rtt() * 1000 for s in flows] or [0.0]
    return DatacenterRow(
        scheme=scheme,
        mean_throughput_mbps=statistics.fmean(tputs),
        median_throughput_mbps=statistics.median(tputs),
        mean_rtt_ms=statistics.fmean(rtts),
        median_rtt_ms=statistics.median(rtts),
    )


def run_datacenter(scale: int = 16, duration: float = 3.0) -> Plan[DatacenterResult]:
    """Plan the §5.5 comparison at ``1/scale`` of the paper's absolute size.

    With ``scale=16`` the scenario becomes 4 senders sharing 625 Mbps with
    1.25 MB flows — the same per-flow share and buffer-to-BDP ratio as the
    paper's 64-sender, 10 Gbps configuration.
    """
    if scale <= 0 or 64 % scale != 0:
        raise ValueError("scale must be a positive divisor of 64")
    n_flows = 64 // scale
    link_rate = 10e9 / scale

    # DCTCP over the ECN-marking gateway: the registry cell (pinned at 1/32
    # scale, with the RTT, marking threshold, off time and seed) re-scaled to
    # the requested size.
    cell = get_scenario("datacenter-dctcp")
    dctcp_cell = cell.override(
        rate_bps=link_rate,
        n_flows=n_flows,
        workloads=(
            ByteFlowWorkload.exponential(
                mean_flow_bytes=20e6 / scale,
                mean_off_seconds=cell.workloads[0].off_distribution.mean(),
            ),
        ),
    )
    # RemyCC (minimum-potential-delay objective) over plain DropTail.
    remy_cell = dctcp_cell.override(
        queue="droptail",
        protocols=(ProtocolSpec("remy", tree="datacenter"),),
    )

    def fold(grid: Slice) -> DatacenterResult:
        [[[dctcp_run]], [[remy_run]]] = grid
        return DatacenterResult(
            dctcp=_summarise("DCTCP (ECN)", dctcp_run),
            remycc=_summarise("RemyCC (DropTail)", remy_run),
            scale=scale,
            n_flows=n_flows,
            link_rate_bps=link_rate,
        )

    # Both cells keep the registry name, so both rows run at the same seed:
    # the paper compares the two schemes on identical workload randomness.
    return Plan(Grid((dctcp_cell, remy_cell), n_runs=1, duration=duration), fold)
