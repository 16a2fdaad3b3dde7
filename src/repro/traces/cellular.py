"""Synthetic LTE-like downlink traces.

The generator is a Markov-modulated rate process: the link's deliverable rate
follows a mean-reverting geometric random walk (multi-second coherence,
heavy-ish rate variation) punctuated by short outages, which is the
qualitative behaviour of the measured Verizon/AT&T LTE downlinks the paper
replays.  The resulting rate series is converted into a sequence of
per-packet delivery instants: at each instant exactly one MTU-sized packet
may leave the queue, matching the paper's replay semantics ("packets are
enqueued by the network until they can be dequeued and delivered at the same
instants seen in the trace").

A hop names its trace by a :class:`TraceSpec`, ``(kind, duration, seed)``,
which generates the instants on first use, once per process.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence


@dataclass(frozen=True)
class CellularTraceConfig:
    """Parameters of the synthetic cellular rate process."""

    #: Long-run average deliverable rate (bits/second).
    mean_rate_bps: float = 12e6
    #: Hard ceiling on the instantaneous rate (the paper quotes 0-50 Mbps).
    max_rate_bps: float = 50e6
    #: Floor on the instantaneous rate outside outages.
    min_rate_bps: float = 0.5e6
    #: Standard deviation of the per-step log-rate innovation.
    volatility: float = 0.35
    #: Mean-reversion strength toward ``mean_rate_bps`` (0..1 per step).
    reversion: float = 0.12
    #: Length of one rate step (seconds) — the coherence granularity.
    step_seconds: float = 0.5
    #: Probability that a step is an outage (rate collapses to near zero).
    outage_probability: float = 0.02
    #: Rate during an outage (bits/second).
    outage_rate_bps: float = 50e3

    def __post_init__(self) -> None:
        if self.mean_rate_bps <= 0 or self.max_rate_bps <= 0:
            raise ValueError("rates must be positive")
        if self.min_rate_bps <= 0 or self.min_rate_bps > self.max_rate_bps:
            raise ValueError("need 0 < min_rate_bps <= max_rate_bps")
        if self.step_seconds <= 0:
            raise ValueError("step_seconds must be positive")
        if not 0 <= self.outage_probability < 1:
            raise ValueError("outage_probability must be in [0, 1)")


def generate_rate_series(
    duration_seconds: float,
    config: CellularTraceConfig,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Generate a piecewise-constant rate series [(start_time, rate_bps), ...]."""
    if duration_seconds <= 0:
        raise ValueError("duration_seconds must be positive")
    rng = random.Random(seed)
    steps = max(1, int(math.ceil(duration_seconds / config.step_seconds)))
    log_mean = math.log(config.mean_rate_bps)
    log_rate = log_mean + rng.gauss(0, config.volatility)
    series = []
    for step in range(steps):
        t = step * config.step_seconds
        if rng.random() < config.outage_probability:
            rate = config.outage_rate_bps
        else:
            # Mean-reverting geometric random walk.
            log_rate += config.reversion * (log_mean - log_rate) + rng.gauss(0, config.volatility)
            rate = math.exp(log_rate)
            rate = min(max(rate, config.min_rate_bps), config.max_rate_bps)
        series.append((t, rate))
    return series


def rate_series_to_delivery_times(
    rate_series: Sequence[tuple[float, float]],
    duration_seconds: float,
) -> list[float]:
    """Convert a piecewise-constant rate series into per-packet delivery
    instants, one :data:`~repro.netsim.packet.DATA_PACKET_BYTES` packet each."""
    # Imported here: ``repro.netsim`` imports this package (a hop names its
    # trace by a TraceSpec), and a trace is generated on first use.
    from repro.netsim.packet import DATA_PACKET_BYTES

    if not rate_series:
        raise ValueError("rate_series must not be empty")
    times: list[float] = []
    packet_bits = DATA_PACKET_BYTES * 8
    for index, (start, rate) in enumerate(rate_series):
        end = (
            rate_series[index + 1][0]
            if index + 1 < len(rate_series)
            else duration_seconds
        )
        end = min(end, duration_seconds)
        if end <= start or rate <= 0:
            continue
        interval = packet_bits / rate
        t = start
        # First delivery opportunity of the segment is one service time in.
        while t + interval <= end:
            t += interval
            times.append(t)
    return times


def generate_cellular_trace(
    duration_seconds: float = 120.0,
    config: CellularTraceConfig | None = None,
    seed: int = 0,
) -> list[float]:
    """Generate delivery timestamps for a synthetic cellular downlink."""
    config = config if config is not None else CellularTraceConfig()
    series = generate_rate_series(duration_seconds, config, seed=seed)
    return rate_series_to_delivery_times(series, duration_seconds)


def verizon_lte_trace(duration_seconds: float = 120.0, seed: int = 1) -> list[float]:
    """A synthetic stand-in for the paper's Verizon LTE downlink trace."""
    config = CellularTraceConfig(
        mean_rate_bps=12e6,
        max_rate_bps=50e6,
        volatility=0.35,
        reversion=0.12,
        step_seconds=0.5,
        outage_probability=0.02,
    )
    return generate_cellular_trace(duration_seconds, config, seed=seed)


def att_lte_trace(duration_seconds: float = 120.0, seed: int = 2) -> list[float]:
    """A synthetic stand-in for the paper's AT&T LTE downlink trace.

    The AT&T capture in the paper is slower and choppier than the Verizon
    one (Figure 9's throughput axis tops out near 2 Mbps per sender with four
    senders), so the synthetic configuration uses a lower mean rate and more
    frequent outages.
    """
    config = CellularTraceConfig(
        mean_rate_bps=7e6,
        max_rate_bps=30e6,
        volatility=0.45,
        reversion=0.10,
        step_seconds=0.4,
        outage_probability=0.04,
    )
    return generate_cellular_trace(duration_seconds, config, seed=seed)


#: Trace generators addressable from a :class:`TraceSpec`.
TRACE_KINDS: dict[str, Callable[..., list[float]]] = {
    "verizon": verizon_lte_trace,
    "att": att_lte_trace,
}

#: Generated traces by spec, shared by every hop in the process that names one.
_TRACES: dict["TraceSpec", list[float]] = {}


@dataclass(frozen=True)
class TraceSpec(Sequence[float]):
    """A cellular delivery trace described by ``(kind, duration, seed)``.

    It is the sequence of delivery instants that :data:`TRACE_KINDS`'s
    ``kind`` generator yields, generated on first use and cached once per
    process, so a hop (:attr:`~repro.netsim.path.LinkSpec.delivery_trace`)
    pickles as these three fields instead of thousands of timestamps.  Its
    generators yield non-decreasing instants, so the hop skips the list
    check and nothing generates the trace before a link needs it; a trace
    too short to hold an instant (one outage step at most) raises then.
    """

    kind: str
    duration_seconds: float
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ValueError(
                f"unknown trace kind {self.kind!r}; expected one of {sorted(TRACE_KINDS)}"
            )
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")

    def times(self) -> list[float]:
        """The instants as one list, cached per process and shared by every
        hop built from this spec: read it, never change it."""
        times = _TRACES.get(self)
        if times is None:
            times = TRACE_KINDS[self.kind](duration_seconds=self.duration_seconds, seed=self.seed)
            if not times:
                raise ValueError(f"{self!r} holds no delivery instant; lengthen duration_seconds")
            _TRACES[self] = times
        return times

    def __getitem__(self, index: Any) -> Any:
        return self.times()[index]

    def __len__(self) -> int:
        return len(self.times())

    def __iter__(self) -> Iterator[float]:
        return iter(self.times())
