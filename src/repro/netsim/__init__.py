"""Discrete-event, packet-level network simulator.

This subpackage is the substrate the paper's evaluation runs on (the role
played by ns-2 in the original work).  It provides:

* an event scheduler (:mod:`repro.netsim.events`),
* packets and per-packet metadata (:mod:`repro.netsim.packet`),
* bottleneck links, both constant-rate and trace-driven
  (:mod:`repro.netsim.link`),
* queueing disciplines: DropTail, RED, CoDel and stochastic fair queueing
  with CoDel (:mod:`repro.netsim.queue`, :mod:`repro.netsim.aqm`,
  :mod:`repro.netsim.sfq`),
* a reliable-transport sender/receiver harness that hosts any congestion
  control module (:mod:`repro.netsim.sender`, :mod:`repro.netsim.receiver`),
* one topology spec and engine, paths of links with congestible reverse
  directions, the paper's single-bottleneck dumbbell being the one-hop case
  (:mod:`repro.netsim.path`), with the queue factory every hop shares
  (:func:`repro.netsim.queue.build_queue`), and
* the simulation driver plus per-flow statistics
  (:mod:`repro.netsim.simulator`, :mod:`repro.netsim.stats`).
"""

from repro.netsim.events import EventScheduler
from repro.netsim.packet import Packet, AckInfo
from repro.netsim.link import ConstantRateLink, TraceDrivenLink
from repro.netsim.queue import DropTailQueue, build_queue
from repro.netsim.aqm import REDQueue, CoDelQueue
from repro.netsim.sfq import SfqCoDelQueue
from repro.netsim.sender import Sender
from repro.netsim.receiver import Receiver
from repro.netsim.path import LinkSpec, PathNetwork, PathSpec
from repro.netsim.simulator import Simulation, SimulationResult
from repro.netsim.stats import FlowStats

__all__ = [
    "EventScheduler",
    "Packet",
    "AckInfo",
    "ConstantRateLink",
    "TraceDrivenLink",
    "DropTailQueue",
    "REDQueue",
    "CoDelQueue",
    "SfqCoDelQueue",
    "Sender",
    "Receiver",
    "build_queue",
    "LinkSpec",
    "PathNetwork",
    "PathSpec",
    "Simulation",
    "SimulationResult",
    "FlowStats",
]
