"""Probability distributions used by the traffic and network models.

Every distribution draws from a caller-supplied :class:`random.Random` so that
simulations are reproducible and candidate evaluations inside the optimizer
can share random seeds (§4.3: "We use the same random seed and the same set of
specimen networks in the simulation of each candidate action").
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod


class Distribution(ABC):
    """A one-dimensional distribution over non-negative reals."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one value."""

    @abstractmethod
    def mean(self) -> float:
        """Expected value (may be ``inf`` for heavy-tailed distributions)."""


class ConstantDistribution(Distribution):
    """Always returns the same value (degenerate distribution)."""

    def __init__(self, value: float):
        if not value >= 0:  # NaN-failing form
            raise ValueError(f"value must be non-negative, got {value!r}")
        self.value = float(value)

    def sample(self, rng: random.Random) -> float:
        return self.value

    def mean(self) -> float:
        return self.value


class UniformDistribution(Distribution):
    """Uniform on [low, high] — the paper's design ranges are uniform draws."""

    def __init__(self, low: float, high: float):
        if not high >= low:  # NaN-failing form
            raise ValueError(f"high must be >= low, got low={low!r}, high={high!r}")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2


class ExponentialDistribution(Distribution):
    """Exponential with the given mean (on/off durations, flow sizes)."""

    def __init__(self, mean: float):
        if not mean > 0:  # NaN-failing form
            raise ValueError(f"mean must be positive, got {mean!r}")
        self._mean = float(mean)

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self._mean)

    def mean(self) -> float:
        return self._mean


class ParetoDistribution(Distribution):
    """Shifted Pareto: ``shift + Pareto(xm, alpha)``, optionally truncated.

    With ``alpha <= 1`` the mean is infinite (the paper's Figure 3 fit has
    alpha = 0.5, "suggesting mean is not well-defined"); a ``maximum`` cap
    keeps individual simulation runs finite.
    """

    def __init__(self, xm: float, alpha: float, shift: float = 0.0, maximum: float | None = None):
        if xm <= 0:
            raise ValueError("xm must be positive")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if maximum is not None and maximum <= shift + xm:
            raise ValueError("maximum must exceed shift + xm")
        self.xm = float(xm)
        self.alpha = float(alpha)
        self.shift = float(shift)
        self.maximum = maximum

    def sample(self, rng: random.Random) -> float:
        u = rng.random()
        # Inverse-CDF sampling; clamp u away from 0 to avoid division overflow.
        u = max(u, 1e-12)
        value = self.shift + self.xm / (u ** (1.0 / self.alpha))
        if self.maximum is not None:
            value = min(value, self.maximum)
        return value

    def mean(self) -> float:
        if self.alpha <= 1.0:
            if self.maximum is None:
                return float("inf")
            # Truncated mean, computed analytically for the truncated Pareto.
            xm, alpha, cap = self.xm, self.alpha, self.maximum - self.shift
            if alpha == 1.0:
                import math

                core = xm * math.log(cap / xm) / (1 - (xm / cap) ** alpha)
            else:
                core = (
                    xm ** alpha
                    * (cap ** (1 - alpha) - xm ** (1 - alpha))
                    / ((1 - alpha) * (1 - (xm / cap) ** alpha))
                )
            return self.shift + core
        return self.shift + self.alpha * self.xm / (self.alpha - 1.0)
