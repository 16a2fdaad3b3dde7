"""Prior assumptions about the network: the design ranges supplied to Remy (§3.1).

A :class:`ConfigRange` expresses the protocol designer's uncertainty about
the network — ranges of bottleneck link speed, propagation delay and degree
of multiplexing, plus the traffic model's mean on/off durations.  Drawing
from a range yields a concrete :class:`NetConfig` ("network specimen"), which
the evaluator turns into a simulator topology.

A design problem is a range and an objective (§3.3); ``TABLES`` holds the
paper's published ones (§5.1, §5.5, §5.6), one per named RemyCC under
``results/remycc/``, and ``examples/train_remycc.py --table NAME`` designs
any of them.  ``general_purpose_range()`` is the §5.1 dumbbell model the
three ``delta*`` tables share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.objective import Objective


@dataclass(frozen=True)
class ParameterRange:
    """A closed interval a design-time parameter is drawn from (uniformly)."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(f"high ({self.high}) must be >= low ({self.low})")

    @classmethod
    def exact(cls, value: float) -> "ParameterRange":
        """A degenerate range: the parameter is known exactly a priori."""
        return cls(value, value)

    @property
    def is_exact(self) -> bool:
        return self.low == self.high

    def sample(self, rng: random.Random) -> float:
        if self.is_exact:
            return self.low
        return rng.uniform(self.low, self.high)

    def sample_int(self, rng: random.Random) -> int:
        if self.is_exact:
            return int(round(self.low))
        return rng.randint(int(round(self.low)), int(round(self.high)))


@dataclass(frozen=True)
class NetConfig:
    """One concrete network specimen drawn from a :class:`ConfigRange`."""

    link_speed_bps: float
    rtt_seconds: float
    n_senders: int
    mean_on_seconds: float
    mean_off_seconds: float
    mean_on_bytes: Optional[float] = None
    #: The bottleneck's DropTail buffer in packets
    #: (:attr:`~repro.netsim.path.LinkSpec.buffer_packets`): ``None`` is the
    #: unlimited FIFO of §5.1.
    buffer_packets: Optional[int] = None

    def __post_init__(self) -> None:
        if self.link_speed_bps <= 0:
            raise ValueError("link_speed_bps must be positive")
        if self.rtt_seconds <= 0:
            raise ValueError("rtt_seconds must be positive")
        if self.n_senders <= 0:
            raise ValueError("n_senders must be positive")

    def describe(self) -> str:
        return (
            f"{self.link_speed_bps / 1e6:.1f} Mbps, RTT {self.rtt_seconds * 1000:.0f} ms, "
            f"{self.n_senders} senders, on {self.mean_on_seconds:.1f}s / off {self.mean_off_seconds:.1f}s"
        )


@dataclass(frozen=True)
class ConfigRange:
    """The design range: the set of networks a RemyCC should be prepared for."""

    link_speed_bps: ParameterRange = field(
        default_factory=lambda: ParameterRange(10e6, 20e6)
    )
    rtt_seconds: ParameterRange = field(default_factory=lambda: ParameterRange(0.100, 0.200))
    n_senders: ParameterRange = field(default_factory=lambda: ParameterRange(1, 16))
    mean_on_seconds: ParameterRange = field(default_factory=lambda: ParameterRange.exact(5.0))
    mean_off_seconds: ParameterRange = field(default_factory=lambda: ParameterRange.exact(5.0))
    #: When set, "on" periods are measured in bytes drawn from an exponential
    #: distribution with this mean, instead of in seconds.
    mean_on_bytes: Optional[ParameterRange] = None
    #: Copied into every specimen (see :attr:`NetConfig.buffer_packets`).
    buffer_packets: Optional[int] = None

    def sample(self, rng: random.Random) -> NetConfig:
        """Draw one network specimen."""
        return NetConfig(
            link_speed_bps=self.link_speed_bps.sample(rng),
            rtt_seconds=self.rtt_seconds.sample(rng),
            n_senders=max(1, self.n_senders.sample_int(rng)),
            mean_on_seconds=self.mean_on_seconds.sample(rng),
            mean_off_seconds=self.mean_off_seconds.sample(rng),
            mean_on_bytes=(
                self.mean_on_bytes.sample(rng) if self.mean_on_bytes is not None else None
            ),
            buffer_packets=self.buffer_packets,
        )

    def specimens(self, count: int, seed: int = 0) -> list[NetConfig]:
        """A deterministic list of specimens (shared across candidate actions)."""
        rng = random.Random(seed)
        return [self.sample(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# The paper's published design problems (§5.1, §5.5, §5.6).
# ---------------------------------------------------------------------------

def general_purpose_range() -> ConfigRange:
    """The uncertain dumbbell model used for the three general-purpose RemyCCs."""
    return ConfigRange(
        link_speed_bps=ParameterRange(10e6, 20e6),
        rtt_seconds=ParameterRange(0.100, 0.200),
        n_senders=ParameterRange(1, 16),
        mean_on_seconds=ParameterRange.exact(5.0),
        mean_off_seconds=ParameterRange.exact(5.0),
    )


#: Every named RemyCC's design problem: its prior model of the network and
#: its objective (§3.1, §3.3), keyed by its file stem under ``results/remycc/``.
TABLES: dict[str, tuple[ConfigRange, Objective]] = {
    # §5.1: one uncertain dumbbell, three delay weights.
    **{
        f"delta{delta:g}": (general_purpose_range(), Objective.proportional(delta))
        for delta in (0.1, 1.0, 10.0)
    },
    # Figure 11: the link speed known exactly ("1×") or within a tenfold
    # range ("10×"), at the δ = 1 that figure scores every scheme with.
    # Two senders at 150 ms, on 5 s / off 5 s as in every default range.
    "1x": (
        ConfigRange(
            link_speed_bps=ParameterRange.exact(15e6),
            rtt_seconds=ParameterRange.exact(0.150),
            n_senders=ParameterRange.exact(2),
        ),
        Objective.proportional(1.0),
    ),
    "10x": (
        ConfigRange(
            link_speed_bps=ParameterRange(4.7e6, 47e6),
            rtt_seconds=ParameterRange.exact(0.150),
            n_senders=ParameterRange.exact(2),
        ),
        Objective.proportional(1.0),
    ),
    # §5.5: 10 Gbps, 4 ms RTT, up to 64 senders of 20 MB flows.
    "datacenter": (
        ConfigRange(
            link_speed_bps=ParameterRange.exact(10e9),
            rtt_seconds=ParameterRange.exact(0.004),
            n_senders=ParameterRange(1, 64),
            mean_on_seconds=ParameterRange.exact(1.0),
            mean_off_seconds=ParameterRange.exact(0.1),
            mean_on_bytes=ParameterRange.exact(20e6),
        ),
        Objective.min_potential_delay(),
    ),
    # §5.6: designed to co-exist with buffer-filling competitors over RTTs
    # up to 10 s.  The repo never states the paper's δ for it; δ = 1 here.
    "coexist": (
        ConfigRange(
            link_speed_bps=ParameterRange.exact(15e6),
            rtt_seconds=ParameterRange(0.100, 10.0),
            n_senders=ParameterRange(1, 2),
            mean_on_seconds=ParameterRange.exact(5.0),
            mean_off_seconds=ParameterRange.exact(0.5),
        ),
        Objective.proportional(1.0),
    ),
}
