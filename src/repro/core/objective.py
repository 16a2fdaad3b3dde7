"""Objective functions: how Remy scores a congestion-control outcome (§3.3).

The per-flow score of Equation 1 is

    U_alpha(throughput) - delta * U_beta(delay)

where ``U_alpha`` is the alpha-fairness utility

    U_alpha(x) = x^(1-alpha) / (1-alpha)      (alpha != 1)
    U_1(x)     = log(x)

``alpha`` and ``beta`` set the fairness/efficiency trade-off for throughput
and delay respectively, and ``delta`` weights delay against throughput.  The
paper explores two settings: ``alpha = beta = 1`` (proportional fairness in
both, used with delta in {0.1, 1, 10}) and ``alpha = 2, delta = 0`` (minimum
potential delay fairness, i.e. maximising -1/throughput, used for the
datacenter RemyCC).  :data:`repro.core.config.TABLES` pairs every named
RemyCC with the objective it is designed for: the first setting at its δ
for the ``delta*`` tables, at δ = 1 for ``1x``, ``10x`` and ``coexist``, and
the second for ``datacenter``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.netsim.stats import FlowStats

#: Floor applied to throughput (as a fraction of the fair share) and delay
#: (as a fraction of the minimum RTT) before taking logarithms, so a flow
#: that transferred nothing contributes a large-but-finite penalty instead of
#: destroying the sum with -infinity.
UTILITY_FLOOR = 1e-6


def alpha_fairness_utility(x: float, alpha: float) -> float:
    """The alpha-fairness utility ``U_alpha(x)`` (Srikant 2004, §3.3)."""
    if x < 0:
        raise ValueError("alpha-fairness utility is defined for non-negative x")
    x = max(x, UTILITY_FLOOR)
    if math.isclose(alpha, 1.0):
        return math.log(x)
    return x ** (1.0 - alpha) / (1.0 - alpha)


@dataclass(frozen=True)
class Objective:
    """The scoring function handed to Remy by the protocol designer."""

    alpha: float = 1.0
    beta: float = 1.0
    delta: float = 1.0
    #: Normalise throughput by the per-flow fair share (link rate / senders)
    #: and delay by the minimum RTT, so scores are comparable across network
    #: specimens with different absolute rates and RTTs.
    normalize: bool = True

    def score_flow(
        self,
        throughput_bps: float,
        delay_seconds: float,
        fair_share_bps: float = 1.0,
        min_rtt_seconds: float = 1.0,
    ) -> float:
        """Score one flow's (throughput, average RTT-or-delay) outcome."""
        if fair_share_bps <= 0 or min_rtt_seconds <= 0:
            raise ValueError("fair_share_bps and min_rtt_seconds must be positive")
        if self.normalize:
            throughput = throughput_bps / fair_share_bps
            delay = delay_seconds / min_rtt_seconds
        else:
            throughput = throughput_bps
            delay = delay_seconds
        throughput = max(throughput, UTILITY_FLOOR)
        delay = max(delay, UTILITY_FLOOR)
        score = alpha_fairness_utility(throughput, self.alpha)
        if self.delta != 0.0:
            score -= self.delta * alpha_fairness_utility(delay, self.beta)
        return score

    def score_stats(
        self, stats: "FlowStats", fair_share_bps: float, min_rtt_seconds: float
    ) -> float:
        """Score one simulated flow: its throughput, and its mean RTT floored
        at the base RTT (the base RTT itself when no RTT was sampled)."""
        avg_rtt = stats.avg_rtt() if stats.rtt_count else min_rtt_seconds
        return self.score_flow(
            throughput_bps=stats.throughput_bps(),
            delay_seconds=max(avg_rtt, min_rtt_seconds),
            fair_share_bps=fair_share_bps,
            min_rtt_seconds=min_rtt_seconds,
        )

    # -- the paper's named settings --------------------------------------------
    @classmethod
    def proportional(cls, delta: float = 1.0) -> "Objective":
        """alpha = beta = 1: log(throughput) - delta * log(delay)."""
        return cls(alpha=1.0, beta=1.0, delta=delta)

    @classmethod
    def min_potential_delay(cls) -> "Objective":
        """alpha = 2, delta = 0: maximise -1/throughput (datacenter RemyCC)."""
        return cls(alpha=2.0, beta=1.0, delta=0.0)

    def describe(self) -> str:
        if math.isclose(self.alpha, 2.0) and self.delta == 0.0:
            return "minimum potential delay (-1/throughput)"
        return f"log(throughput) - {self.delta:g} * log(delay)"
