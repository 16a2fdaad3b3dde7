"""Datacenter incast workload.

In data-center traffic "the off-to-on switches of contending flows may cluster
near one another in time, leading to incast" (§3.2).  This workload wraps a
byte-based flow-size distribution but synchronises flow starts to a shared
epoch grid with a small jitter, so that many senders switch on almost
simultaneously — the pattern that stresses shallow switch buffers.
"""

from __future__ import annotations

import random

from repro.netsim.packet import DATA_PACKET_BYTES
from repro.netsim.sender import FlowDemand, Workload
from repro.traffic.distributions import Distribution, ExponentialDistribution, UniformDistribution


class IncastWorkload(Workload):
    """Synchronised (clustered) flow arrivals for datacenter experiments."""

    def __init__(
        self,
        flow_size: Distribution,
        epoch_seconds: float = 0.1,
        jitter_seconds: float = 0.002,
    ):
        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if jitter_seconds < 0:
            raise ValueError("jitter_seconds cannot be negative")
        self.flow_size = flow_size
        self.epoch_seconds = epoch_seconds
        self.jitter = UniformDistribution(0.0, jitter_seconds) if jitter_seconds > 0 else None

    @classmethod
    def exponential(
        cls, mean_flow_bytes: float, epoch_seconds: float = 0.1, **kwargs
    ) -> "IncastWorkload":
        return cls(ExponentialDistribution(mean_flow_bytes), epoch_seconds, **kwargs)

    def first_on_delay(self, rng: random.Random) -> float:
        return self._next_epoch_delay(rng)

    def next_off_duration(self, rng: random.Random) -> float:
        return self._next_epoch_delay(rng)

    def _next_epoch_delay(self, rng: random.Random) -> float:
        delay = self.epoch_seconds
        if self.jitter is not None:
            delay += self.jitter.sample(rng)
        return delay

    def next_flow(self, rng: random.Random) -> FlowDemand:
        size = max(DATA_PACKET_BYTES, int(round(self.flow_size.sample(rng))))
        return FlowDemand(size_bytes=size)
