"""Traffic models: the stochastic offered-load processes of §3.2 and §5.1.

Senders switch between "off" periods (exponentially distributed) and "on"
periods whose demand is expressed either as a number of bytes (drawn from an
exponential or heavy-tailed Pareto distribution) or as a duration in
seconds (videoconference-style sources).
"""

from repro.traffic.distributions import (
    ConstantDistribution,
    Distribution,
    ExponentialDistribution,
    ParetoDistribution,
    UniformDistribution,
)
from repro.traffic.flowsize import icsi_flow_length_distribution, ICSI_PARETO_ALPHA, ICSI_PARETO_XM
from repro.traffic.onoff import (
    ByteFlowWorkload,
    FixedOnPeriodWorkload,
    OnOffWorkload,
    TimedFlowWorkload,
)
from repro.traffic.incast import IncastWorkload

__all__ = [
    "Distribution",
    "ConstantDistribution",
    "ExponentialDistribution",
    "ParetoDistribution",
    "UniformDistribution",
    "icsi_flow_length_distribution",
    "ICSI_PARETO_ALPHA",
    "ICSI_PARETO_XM",
    "OnOffWorkload",
    "ByteFlowWorkload",
    "TimedFlowWorkload",
    "FixedOnPeriodWorkload",
    "IncastWorkload",
]
