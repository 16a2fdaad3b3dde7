"""On/off switching workloads (§3.2, §5.1).

Each source alternates between an exponentially distributed "off" period and
an "on" period whose demand is either

* a number of **bytes** to transfer (``ByteFlowWorkload``) — drawn from an
  exponential distribution or the heavy-tailed flow-length model of Figure 3;
  the source stays on until the transfer completes; or
* a **duration** in seconds (``TimedFlowWorkload``) — the source sends as
  fast as the congestion-control protocol allows for that long, modelling
  videoconference-like traffic.
"""

from __future__ import annotations

import math
import random

from repro.netsim.packet import DATA_PACKET_BYTES
from repro.netsim.sender import FlowDemand, Workload
from repro.traffic.distributions import ConstantDistribution, Distribution, ExponentialDistribution

#: The shortest on period a :class:`TimedFlowWorkload` draws, in seconds.
MIN_ON_SECONDS = 0.01


class FixedOnPeriodWorkload(Workload):
    """On from ``start`` for exactly ``duration`` seconds, then off forever.

    Deterministic by construction (no rng draws), which makes it the building
    block for arrival/departure scenarios: Figure 6's departing competitor is
    one of these ending mid-run.
    """

    def __init__(self, start: float, duration: float):
        if not (start >= 0 and duration > 0):  # NaN-failing form
            raise ValueError(
                f"start must be >= 0 and duration > 0, got start={start!r}, duration={duration!r}"
            )
        self.start = start
        self.duration = duration

    def first_on_delay(self, rng: random.Random) -> float:
        return self.start

    def next_off_duration(self, rng: random.Random) -> float:
        return math.inf

    def next_flow(self, rng: random.Random) -> FlowDemand:
        return FlowDemand(duration=self.duration)


class OnOffWorkload(Workload):
    """Base class: exponential off periods, subclass-defined on periods."""

    def __init__(
        self,
        mean_off_seconds: float,
        start_on: bool = False,
    ):
        if not mean_off_seconds >= 0:  # NaN-failing form
            raise ValueError(f"mean_off_seconds cannot be negative, got {mean_off_seconds!r}")
        self.off_distribution: Distribution
        if mean_off_seconds == 0:
            self.off_distribution = ConstantDistribution(0.0)
        else:
            self.off_distribution = ExponentialDistribution(mean_off_seconds)
        self.start_on = start_on

    def first_on_delay(self, rng: random.Random) -> float:
        if self.start_on:
            return 0.0
        return self.off_distribution.sample(rng)

    def next_off_duration(self, rng: random.Random) -> float:
        return self.off_distribution.sample(rng)

    def next_flow(self, rng: random.Random) -> FlowDemand:  # pragma: no cover - abstract
        raise NotImplementedError


class ByteFlowWorkload(OnOffWorkload):
    """"On by bytes": each flow transfers a random number of bytes."""

    def __init__(
        self,
        flow_size: Distribution,
        mean_off_seconds: float,
        start_on: bool = False,
    ):
        super().__init__(mean_off_seconds, start_on=start_on)
        self.flow_size = flow_size

    @classmethod
    def exponential(
        cls,
        mean_flow_bytes: float,
        mean_off_seconds: float,
        **kwargs,
    ) -> "ByteFlowWorkload":
        """The paper's most common workload: exponential flow lengths."""
        return cls(ExponentialDistribution(mean_flow_bytes), mean_off_seconds, **kwargs)

    def next_flow(self, rng: random.Random) -> FlowDemand:
        size = max(DATA_PACKET_BYTES, int(round(self.flow_size.sample(rng))))
        return FlowDemand(size_bytes=size)


class TimedFlowWorkload(OnOffWorkload):
    """"On by time": each flow stays on for a random duration."""

    def __init__(
        self,
        on_duration: Distribution,
        mean_off_seconds: float,
        start_on: bool = False,
    ):
        super().__init__(mean_off_seconds, start_on=start_on)
        self.on_duration = on_duration

    @classmethod
    def exponential(
        cls,
        mean_on_seconds: float,
        mean_off_seconds: float,
        **kwargs,
    ) -> "TimedFlowWorkload":
        """Exponentially distributed on and off durations (the design model)."""
        return cls(ExponentialDistribution(mean_on_seconds), mean_off_seconds, **kwargs)

    def next_flow(self, rng: random.Random) -> FlowDemand:
        duration = max(MIN_ON_SECONDS, self.on_duration.sample(rng))
        return FlowDemand(duration=duration)
