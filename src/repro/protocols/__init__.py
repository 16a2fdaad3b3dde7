"""Congestion-control algorithms.

The RemyCC runtime (:mod:`repro.protocols.remycc`) executes rule tables
produced by the Remy optimizer in :mod:`repro.core`.  The remaining modules
are from-scratch implementations of the human-designed schemes the paper
compares against.
"""

from repro.protocols.base import CongestionControl
from repro.protocols.constant_rate import ConstantRate
from repro.protocols.newreno import NewReno
from repro.protocols.vegas import Vegas
from repro.protocols.cubic import Cubic
from repro.protocols.bbr import BBR
from repro.protocols.compound import CompoundTCP
from repro.protocols.dctcp import DCTCP
from repro.protocols.xcp import XCP, XCPRouterQueue
from repro.protocols.remycc import RemyCCProtocol

#: Registry mapping protocol names (as used by experiment configuration and
#: the command-line examples) to their classes.
PROTOCOLS = {
    "constant": ConstantRate,
    "newreno": NewReno,
    "vegas": Vegas,
    "cubic": Cubic,
    "bbr": BBR,
    "compound": CompoundTCP,
    "dctcp": DCTCP,
    "xcp": XCP,
    "remy": RemyCCProtocol,
}

__all__ = [
    "CongestionControl",
    "ConstantRate",
    "NewReno",
    "Vegas",
    "Cubic",
    "BBR",
    "CompoundTCP",
    "DCTCP",
    "XCP",
    "XCPRouterQueue",
    "RemyCCProtocol",
    "PROTOCOLS",
]
