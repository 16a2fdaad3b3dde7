"""Fairness metrics: Jain's index and normalised throughput shares.

Figure 10 plots, for each of four flows with RTTs of 50/100/150/200 ms, the
flow's throughput normalised so the shares sum to one ("normalized throughput
share"), averaged over many runs.  Jain's fairness index is the standard
scalar summary of such an allocation.
"""

from __future__ import annotations

from typing import Sequence


def jain_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2); 1.0 = perfectly fair."""
    values = [max(0.0, float(x)) for x in allocations]
    if not values:
        raise ValueError("need at least one allocation")
    peak = max(values)
    if peak == 0:
        return 1.0
    # The index is scale-invariant; dividing by the largest allocation first
    # keeps the squares of tiny allocations from going subnormal.
    values = [x / peak for x in values]
    total = sum(values)
    squares = sum(x * x for x in values)
    return total * total / (len(values) * squares)


def normalized_shares(allocations: Sequence[float]) -> list[float]:
    """Each allocation divided by the total (shares sum to 1; zeros if all zero)."""
    values = [max(0.0, float(x)) for x in allocations]
    total = sum(values)
    if total <= 0:
        return [0.0 for _ in values]
    return [x / total for x in values]
