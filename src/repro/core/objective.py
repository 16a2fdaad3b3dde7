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

:meth:`Objective.score_stats` scores a simulated flow: throughput over its
"on" time as a fraction of its fair share, delay as a multiple of the base
RTT.  It owns two rules the paper leaves implicit:

- **A flow on for less than its base RTT is not scored**, like a flow that
  never switched on: no ACK could have reached its sender while it was on.
- **A flow that delivered nothing scores one MSS over its on-time.**
  ``U_alpha(0)`` is -infinity for ``alpha >= 1``; one packet is the least a
  served flow delivers, so the penalty is finite and grows with the wait.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.netsim.packet import DATA_PACKET_BYTES

if TYPE_CHECKING:
    from repro.netsim.stats import FlowStats


def alpha_fairness_utility(x: float, alpha: float) -> float:
    """The alpha-fairness utility ``U_alpha(x)`` (Srikant 2004, §3.3)."""
    if x <= 0:
        raise ValueError("alpha-fairness utility is defined for positive x")
    if math.isclose(alpha, 1.0):
        return math.log(x)
    return x ** (1.0 - alpha) / (1.0 - alpha)


@dataclass(frozen=True)
class Objective:
    """The scoring function handed to Remy by the protocol designer."""

    alpha: float = 1.0
    beta: float = 1.0
    delta: float = 1.0

    def score_stats(
        self,
        stats: "FlowStats",
        fair_share_bps: float,
        base_rtt_seconds: float,
    ) -> Optional[float]:
        """Score one simulated flow, or ``None`` if it was on for less than
        its base RTT (see the module docstring).  Its mean RTT is floored at
        the base RTT, which also stands in when no RTT was sampled."""
        if fair_share_bps <= 0 or base_rtt_seconds <= 0:
            raise ValueError("fair_share_bps and base_rtt_seconds must be positive")
        if stats.on_time < base_rtt_seconds:
            return None
        throughput_bps = (stats.bytes_received or DATA_PACKET_BYTES) * 8 / stats.on_time
        score = alpha_fairness_utility(throughput_bps / fair_share_bps, self.alpha)
        if self.delta != 0.0:
            avg_rtt = stats.avg_rtt() if stats.rtt_count else base_rtt_seconds
            delay = max(avg_rtt, base_rtt_seconds) / base_rtt_seconds
            score -= self.delta * alpha_fairness_utility(delay, self.beta)
        return score

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
