"""Cellular link traces (§5.3).

The paper replays downlink delivery traces measured on the Verizon and AT&T
LTE networks while mobile.  Those captures are not redistributable, so this
subpackage *synthesizes* LTE-like delivery traces from a Markov-modulated
rate process with the qualitative characteristics the paper reports
(0-50 Mbps variation, multi-second coherence times, occasional outages) and
turns them into the per-packet delivery timestamps consumed by
:class:`repro.netsim.link.TraceDrivenLink`.  A hop names its trace by a
:class:`TraceSpec` (one of :data:`TRACE_KINDS`, a duration and a seed).
"""

from repro.traces.cellular import (
    TRACE_KINDS,
    CellularTraceConfig,
    TraceSpec,
    att_lte_trace,
    generate_cellular_trace,
    rate_series_to_delivery_times,
    verizon_lte_trace,
)

__all__ = [
    "TRACE_KINDS",
    "TraceSpec",
    "CellularTraceConfig",
    "generate_cellular_trace",
    "rate_series_to_delivery_times",
    "verizon_lte_trace",
    "att_lte_trace",
]
