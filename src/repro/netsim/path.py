"""The topology engine: paths of links, with congestible reverse paths.

The paper's evaluation — and this reproduction's matrix up to PR 4 — lives on
single-bottleneck dumbbells whose acknowledgments return over an ideal path.
The paper's own open question, how well learned schemes generalize to
networks they were not designed for, needs richer topologies: parking-lot
chains where flows cross several bottlenecks, and asymmetric paths where the
ACK stream itself queues behind a congested reverse link.

Every topology is a path:

* :class:`LinkSpec` — one hop: rate (or delivery trace), one-way propagation
  delay, buffer, queue/AQM discipline and stochastic loss;
* :class:`PathSpec` — an ordered chain of forward hops, an (optional) ordered
  chain of reverse hops the acknowledgments traverse, per-flow baseline RTTs
  and, for parking-lot cross traffic, per-flow hop subsets;
* :class:`PathNetwork` — the materialized topology, the only one: flows are
  wired through their hop chains in both directions, every hop owning its
  own queue.

The paper's dumbbell is the one-forward-hop, no-reverse-hop case, built by
:meth:`PathSpec.dumbbell`.  What a dumbbell alone can do — seal a drowned
bottleneck (:attr:`PathSpec.sealable`), serve a FIFO bottleneck eagerly (one
event per data packet) and ride the scheduler's constant-delay lane
(:meth:`PathSpec.dumbbell_hop`) — is decided from the path's shape, so it
does not matter which constructor built it.

Semantics:

* a flow's ``rtt`` is its baseline two-way propagation delay *excluding*
  per-hop serialization, queueing and each hop's own ``delay``; half is
  applied after the last forward hop, half after the last reverse hop (or
  directly, for flows with an ideal reverse path);
* per-hop ``loss_rate`` applies Bernoulli loss at the hop's entry, ahead of
  its queue, drawing from a dedicated rng so loss-free links never perturb
  the random streams of other components;
* queueing-delay statistics accumulate per *forward*-hop traversal into the
  owning flow's :class:`~repro.netsim.stats.FlowStats` (so multi-hop cells
  count one sample per hop crossed); reverse-path ACK queueing is visible
  through the flow's RTT statistics instead.  The per-hop breakdown exists
  only where there is something to break down: with one forward hop it *is*
  the flow total and no per-hop ledger is kept.

A packet dies where it is dropped, and the drop is counted there: every
hop's queue (overflow and AQM drops, in either direction) and every per-hop
loss gate.  A hop hands a packet of a flow that does not cross it to
:data:`~repro.netsim.kernel.NO_ROUTE` (should not happen; uncounted, so the
sanitizer's conservation check would flag it).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Optional, Sequence, Union

from repro.netsim.events import EventScheduler
from repro.netsim.kernel import Lane, Route
from repro.netsim.link import (
    ConstantRateLink,
    Link,
    TraceDrivenLink,
    validate_delivery_trace,
)
from repro.netsim.packet import DATA_PACKET_BYTES, Packet
from repro.netsim.queue import QUEUE_KINDS, QueueDiscipline, QueueFactory, build_queue
from repro.netsim.receiver import Receiver
from repro.netsim.sender import Sender
from repro.netsim.stats import HopDelayStats
from repro.traces import TraceSpec


def validate_flows(rtt: Union[float, Sequence[float]], n_flows: int) -> None:
    """Fail fast on a path's per-flow fields.

    A negative RTT used to die inside a callback (``negative delay``) on the
    heap and to *run* on the lane, whose entries are ``now + delay``
    unchecked; a short RTT sequence surfaced only when the missing flow was
    attached.
    """
    if n_flows <= 0:
        raise ValueError("n_flows must be positive")
    if isinstance(rtt, (int, float)):
        rtts = [float(rtt)]
    else:
        rtts = list(rtt)
        if len(rtts) < n_flows:
            raise ValueError(
                f"rtt sequence has {len(rtts)} entries but the spec has {n_flows} flows"
            )
    for value in rtts:
        if not 0.0 <= value < math.inf:
            raise ValueError(f"rtt must be finite and non-negative, got {value!r}")


@dataclass
class LinkSpec:
    """One hop of a path: a link plus the queue discipline it owns.

    Parameters
    ----------
    rate_bps:
        Transmission rate in bits/second (ignored when ``delivery_trace``
        is set).
    delay:
        One-way propagation delay applied after each transmission (seconds).
        Flow-level baseline RTT lives on :class:`PathSpec`; per-hop delays
        model wire length between routers.
    queue:
        Queue discipline name (one of
        :data:`~repro.netsim.queue.QUEUE_KINDS`) or a factory returning a
        :class:`~repro.netsim.queue.QueueDiscipline`.
    buffer_packets:
        Buffer size in packets; ``None`` (``droptail`` only, the one kind
        that needs no limit) is the unlimited FIFO of §5.1's design model.
    loss_rate:
        Probability a packet is lost at this hop's entry, before its queue
        (stochastic non-congestive loss, e.g. a radio segment).
    delivery_trace:
        Optional ascending delivery timestamps, a list or a
        :class:`~repro.traces.TraceSpec` (generated on first use); the hop
        becomes a :class:`~repro.netsim.link.TraceDrivenLink` (a cellular
        tail link).
    name:
        Label used in link names (diagnostics only).
    """

    rate_bps: float = 15e6
    delay: float = 0.0
    queue: Union[str, QueueFactory] = "droptail"
    buffer_packets: Optional[int] = 1000
    loss_rate: float = 0.0
    delivery_trace: Optional[Sequence[float]] = None
    name: str = ""
    #: RED parameters, consulted only by the ``red`` queue kind.
    red_min_thresh: float = 20.0
    red_max_thresh: float = 60.0

    def __post_init__(self) -> None:
        if self.rate_bps <= 0 and self.delivery_trace is None:
            raise ValueError("rate_bps must be positive")
        if self.buffer_packets is None:
            if isinstance(self.queue, str) and self.queue != "droptail":
                raise ValueError(f"queue {self.queue!r} needs a buffer limit")
        elif self.buffer_packets <= 0:
            raise ValueError("buffer_packets must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if isinstance(self.queue, str) and self.queue not in QUEUE_KINDS:
            raise ValueError(
                f"unknown queue kind {self.queue!r}; expected one of {QUEUE_KINDS}"
            )
        if self.delay < 0:
            raise ValueError("delay cannot be negative")
        if self.delivery_trace is not None and not isinstance(self.delivery_trace, TraceSpec):
            validate_delivery_trace(self.delivery_trace)

    def effective_rate_bps(self) -> float:
        """The hop's rate: constant, or the trace's long-term mean (one
        :data:`~repro.netsim.packet.DATA_PACKET_BYTES` packet per delivery
        instant; a trace of one instant has no mean and keeps ``rate_bps``)."""
        times = self.delivery_trace
        if times is None:
            return self.rate_bps
        span = times[-1] - times[0]
        if span <= 0:
            return self.rate_bps
        return (len(times) - 1) * DATA_PACKET_BYTES * 8 / span

    def make_queue(
        self, rng: Optional[random.Random] = None, mean_rtt: float = 0.05
    ) -> QueueDiscipline:
        """Instantiate this hop's queue discipline."""
        rate_bps = self.effective_rate_bps()
        return build_queue(
            self.queue,
            buffer_packets=self.buffer_packets,
            rng=rng,
            red_min_thresh=self.red_min_thresh,
            red_max_thresh=self.red_max_thresh,
            red_idle_decay_seconds=DATA_PACKET_BYTES * 8 / rate_bps,
            xcp_rate_bps=rate_bps,
            xcp_mean_rtt=mean_rtt,
        )

    def build_link(
        self,
        scheduler: EventScheduler,
        queue: QueueDiscipline,
        name: str,
        eager: bool = False,
    ) -> Link:
        """Materialize the hop (constant-rate or trace-driven; ``eager``: see
        :class:`~repro.netsim.link.ConstantRateLink`)."""
        if self.delivery_trace is not None:
            return TraceDrivenLink(
                scheduler,
                delivery_times=self.delivery_trace,
                queue=queue,
                propagation_delay=self.delay,
                name=name,
            )
        return ConstantRateLink(
            scheduler,
            rate_bps=self.rate_bps,
            queue=queue,
            propagation_delay=self.delay,
            name=name,
            eager=eager,
        )


def _validate_hops(
    hops: tuple[tuple[int, ...], ...],
    n_flows: int,
    n_links: int,
    direction: str,
    allow_empty: bool,
) -> None:
    if len(hops) != n_flows:
        raise ValueError(
            f"{direction}_hops has {len(hops)} entries for {n_flows} flows"
        )
    for flow_id, flow_hops in enumerate(hops):
        if not flow_hops and not allow_empty:
            raise ValueError(
                f"flow {flow_id}: {direction}_hops must name at least one hop"
            )
        for index in flow_hops:
            if not 0 <= index < n_links:
                raise ValueError(
                    f"flow {flow_id}: {direction} hop index {index} out of "
                    f"range for {n_links} links"
                )
        if any(b <= a for a, b in zip(flow_hops, flow_hops[1:])):
            raise ValueError(
                f"flow {flow_id}: {direction}_hops must be strictly "
                f"increasing link indices (a path traverses the chain in "
                f"order), got {flow_hops}"
            )


@dataclass
class PathSpec:
    """Parameters of a multi-bottleneck path network.

    Parameters
    ----------
    forward:
        Ordered chain of hops data packets traverse (at least one).
    reverse:
        Ordered chain of hops acknowledgments traverse; empty means the
        ideal (uncongested, lossless) return path of the paper's
        single-bottleneck topologies.
    rtt:
        Baseline two-way propagation delay per flow (scalar or per-flow
        sequence), *excluding* each hop's serialization/queueing/``delay``.
    n_flows:
        Number of sender-receiver pairs.
    forward_hops / reverse_hops:
        Optional per-flow hop routes: one tuple of strictly increasing link
        indices per flow.  ``None`` routes every flow through the whole
        chain.  Parking-lot cross traffic names a subset (e.g. ``(0,)``).
        A flow's ``reverse_hops`` may be empty (ideal reverse for that
        flow); ``forward_hops`` must name at least one hop.

    Every data packet is :data:`~repro.netsim.packet.DATA_PACKET_BYTES`.
    """

    forward: tuple[LinkSpec, ...] = (LinkSpec(),)
    reverse: tuple[LinkSpec, ...] = ()
    rtt: Union[float, Sequence[float]] = 0.150
    n_flows: int = 2
    forward_hops: Optional[tuple[tuple[int, ...], ...]] = None
    reverse_hops: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        validate_flows(self.rtt, self.n_flows)
        self.forward = tuple(self.forward)
        self.reverse = tuple(self.reverse)
        if not self.forward:
            raise ValueError("a path needs at least one forward hop")
        if self.forward_hops is not None:
            self.forward_hops = tuple(tuple(h) for h in self.forward_hops)
            _validate_hops(
                self.forward_hops, self.n_flows, len(self.forward),
                "forward", allow_empty=False,
            )
        if self.reverse_hops is not None:
            self.reverse_hops = tuple(tuple(h) for h in self.reverse_hops)
            _validate_hops(
                self.reverse_hops, self.n_flows, len(self.reverse),
                "reverse", allow_empty=True,
            )

    @classmethod
    def dumbbell(
        cls,
        n_flows: int = 2,
        rtt: Union[float, Sequence[float]] = 0.150,
        **hop: Any,
    ) -> "PathSpec":
        """The paper's single-bottleneck network (Figure 2, §5.1).

        All data shares one forward hop — ``hop`` takes :class:`LinkSpec`'s
        fields (``rate_bps``, ``queue``, ``buffer_packets``,
        ``delivery_trace``, ``loss_rate``, ...) — and acknowledgments return
        over the ideal reverse path.  The defaults are §5.1's baseline: two
        flows, 150 ms, 15 Mbps into a 1000-packet tail-drop queue.
        """
        return cls(
            forward=(LinkSpec(name="bottleneck", **hop),),
            rtt=rtt,
            n_flows=n_flows,
        )

    # -- per-flow accessors -----------------------------------------------------
    def rtt_for_flow(self, flow_id: int) -> float:
        """Baseline RTT for a given flow (supports per-flow RTT sequences)."""
        if isinstance(self.rtt, (int, float)):
            return float(self.rtt)
        return float(self.rtt[flow_id])

    def mean_rtt(self) -> float:
        """Mean baseline RTT across flows (XCP's control interval)."""
        if isinstance(self.rtt, (int, float)):
            return float(self.rtt)
        rtts = list(self.rtt)
        return sum(rtts) / len(rtts)

    def forward_hops_for(self, flow_id: int) -> tuple[int, ...]:
        """The forward link indices flow ``flow_id`` traverses, in order."""
        if self.forward_hops is None:
            return tuple(range(len(self.forward)))
        return self.forward_hops[flow_id]

    def reverse_hops_for(self, flow_id: int) -> tuple[int, ...]:
        """The reverse link indices the flow's ACKs traverse (may be empty)."""
        if self.reverse_hops is None:
            return tuple(range(len(self.reverse)))
        return self.reverse_hops[flow_id]

    def bottleneck_rate_bps(self, flow_id: int = 0) -> float:
        """The flow's narrowest forward-hop rate (sanity checks, summaries)."""
        return min(self.forward[i].effective_rate_bps() for i in self.forward_hops_for(flow_id))

    def bandwidth_delay_product_packets(self, flow_id: int = 0) -> float:
        """Bandwidth-delay product in packets: the flow's narrowest forward-hop
        rate × its round trip, hop ``delay``s included.

        The round trip, not the one-way delay, because a window must cover
        the data in flight until its ACK returns.  The NIST dumbbell script
        in SNIPPETS.md multiplies packets per ms by the *one-way* delay, half
        of this; its Mbps variant uses the round trip, as here.
        """
        hop_delays = sum(self.forward[i].delay for i in self.forward_hops_for(flow_id))
        hop_delays += sum(self.reverse[i].delay for i in self.reverse_hops_for(flow_id))
        round_trip = self.rtt_for_flow(flow_id) + hop_delays
        return self.bottleneck_rate_bps(flow_id) * round_trip / (DATA_PACKET_BYTES * 8)

    # -- shape -------------------------------------------------------------------
    def dumbbell_hop(self) -> Optional[LinkSpec]:
        """The bottleneck when this path is a constant-rate dumbbell, else ``None``.

        That is one constant-rate forward hop with no propagation delay of
        its own and no reverse hops, whichever constructor built it: every
        per-packet event is then scheduled one serialization time or one
        flow's one-way delay ahead, which is what the seal's proof and the
        scheduler's constant-delay lane (:mod:`repro.netsim.kernel`) both
        need.  Every route out of the hop is then a flow's one-way delay
        to its receiver, which is what the eager FIFO path needs
        (:class:`~repro.netsim.link.ConstantRateLink`).
        """
        hop = self.forward[0]
        one_hop = len(self.forward) == 1 and not self.reverse
        if one_hop and hop.delay == 0 and hop.delivery_trace is None:
            return hop
        return None

    @property
    def sealable(self) -> bool:
        """Whether a drowned bottleneck may be sealed (README "Performance").

        True for exactly the design-time model of §5.1: a constant-rate
        dumbbell (:meth:`dumbbell_hop`) behind an unlimited DropTail FIFO
        (``buffer_packets=None``) with no stochastic loss.  There a packet,
        once queued, is served strictly in arrival order at a known rate and
        nothing is ever dropped, so "this packet cannot leave before the run
        ends" is decidable at enqueue time.  A finite buffer, any AQM, a trace-driven
        link, ``loss_rate > 0``, a second hop in either direction or a hop
        delay breaks one of those premises; a queue *factory* is opaque and
        never eligible.
        """
        hop = self.dumbbell_hop()
        if hop is None:
            return False
        return (hop.queue, hop.buffer_packets, hop.loss_rate) == ("droptail", None, 0.0)

    # -- generalisation hooks ---------------------------------------------------
    def with_hops(self, **link_fields: Any) -> "PathSpec":
        """A copy with ``link_fields`` replaced on every *forward* hop.

        The scheme runner's router-support hook (``SchemeSpec.queue``) and
        :meth:`~repro.scenarios.spec.ScenarioSpec.override`'s per-hop knobs:
        a scheme that needs sfqCoDel/XCP/RED gateways needs them at every
        forward bottleneck.  Reverse hops keep their configuration — the
        scheme under test does not administer the ACK path.
        """
        return replace(
            self,
            forward=tuple(replace(link, **link_fields) for link in self.forward),
        )


@dataclass
class FlowEndpoints:
    """The pieces that make up one attached flow."""

    sender: Sender
    receiver: Receiver
    rtt: float


def _lossy_entry(
    rng: random.Random, loss_rate: float, losses: list[int], index: int,
    link: Link, packet: Packet,
) -> None:
    """A hop's Bernoulli loss gate, ahead of its queue (the sender recovers
    through its normal loss detection)."""
    if rng.random() < loss_rate:
        losses[index] += 1
        return
    link.receive(packet)


class PathNetwork:
    """Flows wired through ordered chains of links in both directions.

    Per-direction state is indexed ``0`` (forward: data) / ``1`` (reverse:
    acknowledgments).  Construction order is deterministic — every forward
    hop (queue, then loss rng when enabled), then every reverse hop — so a
    given network rng yields identical streams run to run.  Routing is
    precomputed per ``(hop, flow)`` (:meth:`attach_flow`); ``lanes=False``
    (the heap-only reference, ``Simulation._lanes``) keeps the scheduler's
    constant-delay lane empty on every shape, and ``eager=False`` (the
    event-path reference, ``Simulation._eager``) keeps a dumbbell's FIFO
    bottleneck on its finish and arrival events.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        spec: PathSpec,
        rng: Optional[random.Random] = None,
        lanes: bool = True,
        eager: bool = True,
    ) -> None:
        self.scheduler = scheduler
        self.spec = spec
        self.rng = rng if rng is not None else random.Random(0)
        mean_rtt = spec.mean_rtt()
        # The lane, where every one-way hand-off is one constant delay
        # ahead: a constant-rate dumbbell whose flows share one RTT.  Any
        # other shape has more distinct delays than the lane merge is worth
        # and stays on the heap.
        lanes = (
            lanes
            and spec.dumbbell_hop() is not None
            and len({spec.rtt_for_flow(i) for i in range(spec.n_flows)}) == 1
        )
        self._flow_lane: Lane = scheduler._lane if lanes else None
        # A dumbbell's FIFO bottleneck computes its service and its
        # receivers' arrivals at enqueue (the link keeps any other queue on
        # its events).
        eager = eager and spec.dumbbell_hop() is not None

        chains = (spec.forward, spec.reverse)
        self.links: tuple[list[Link], list[Link]] = ([], [])
        #: Per hop: its entry loss gate (``None``: loss-free — no gate, and
        #: no draw taken from the network rng for one) and the gate's count
        #: of lost packets.
        self._gates: tuple[list[Optional[Callable[[Packet], None]]], ...] = ([], [])
        self.losses = tuple([0] * len(chain) for chain in chains)
        for direction, chain in enumerate(chains):
            for index, hop in enumerate(chain):
                queue = hop.make_queue(self.rng, mean_rtt)
                name = hop.name or f"{'rev' if direction else 'fwd'}{index}"
                link = hop.build_link(scheduler, queue, name, eager=eager)
                self.links[direction].append(link)
                gate = None
                if hop.loss_rate > 0.0:
                    loss_rng = random.Random(self.rng.getrandbits(32))
                    gate = partial(
                        _lossy_entry, loss_rng, hop.loss_rate, self.losses[direction], index, link
                    )
                self._gates[direction].append(gate)
        self.forward_links, self.reverse_links = self.links
        self.forward_losses, self.reverse_losses = self.losses
        #: Per-forward-hop attribution, one ``flow id ->``
        #: :class:`~repro.netsim.stats.HopDelayStats` map per hop (each
        #: link's own), filled in :meth:`attach_flow` for exactly the hops a
        #: flow traverses.  Empty with one forward hop, whose ledger would
        #: repeat the flow totals.
        self.hop_delay_stats: list[dict[int, HopDelayStats]] = (
            [link.hop_delay_stats for link in self.forward_links]
            if len(spec.forward) > 1
            else []
        )

        #: Simulated time at which the bottleneck was sealed (see
        #: :meth:`arm_seal`); ``None`` while it can still deliver.
        self.sealed_at: Optional[float] = None
        self.flows: dict[int, FlowEndpoints] = {}

    # -- sealing ---------------------------------------------------------------
    def arm_seal(self, end_time: float) -> None:
        """Let the bottleneck seal itself once it is drowned
        (:attr:`PathSpec.sealable` specs only; a no-op on any other).

        ``end_time`` is when the run stops.
        """
        link = self.forward_links[0]
        if self.spec.sealable and isinstance(link, ConstantRateLink):
            link.arm_seal(end_time, self._seal)

    def _seal(self) -> None:
        self.sealed_at = self.scheduler.now
        for endpoints in self.flows.values():
            endpoints.sender.seal()

    def settle(self, until: float) -> None:
        """Settle what the eager path accounted ahead of time, once the run
        has stopped at ``until`` (its end, or where ``max_events`` cut it).

        Each hop records the waits of the packets whose service started by
        then (:meth:`~repro.netsim.link.LinkBase.settle`), and each arrival
        an eager hop counted that falls after ``until`` is taken back
        (:meth:`~repro.netsim.receiver.Receiver.retract`).  Such an arrival's
        ACK is still queued, and its ``sent_time`` is the arrival's time: an
        arrival event, had there been one, would have run by ``until``.
        """
        for link in self.forward_links:
            link.settle(until)
        # An ACK entry is the one kind with a fifth slot; its argument is an
        # args tuple on the heap and bare on the lane.
        scheduler = self.scheduler
        queued = [(entry[3][0], entry[4]) for entry in scheduler._heap if len(entry) == 5]
        queued += [(entry[3], entry[4]) for entry in scheduler._lane if len(entry) == 5]
        for ack, counted in queued:
            if ack.sent_time > until:
                self.flows[ack.flow_id].receiver.retract(counted)

    def release(self) -> None:
        """Cut every hop's and endpoint's wiring once the simulation has run:
        what is left — links, queues, flows, counters — is data."""
        for links, gates in zip(self.links, self._gates):
            for link in links:
                link.release()
            gates[:] = [None] * len(gates)
        for endpoints in self.flows.values():
            endpoints.sender.release()
            endpoints.receiver.release()

    def _entry(self, direction: int, index: int) -> Callable[[Packet], None]:
        """Where packets enter a hop: its loss gate if it has one, else the
        link's ``receive``."""
        return self._gates[direction][index] or self.links[direction][index].receive

    # -- flow attachment -------------------------------------------------------
    def attach_flow(
        self, flow_id: int, sender: Sender, receiver: Receiver
    ) -> FlowEndpoints:
        """Wire a sender/receiver pair through its hop chains.

        Every hand-off is a route ``(delay, lane, sink)`` (see
        :mod:`repro.netsim.kernel`): hop to hop directly, and across the
        flow's one-way propagation delay from the last hop of each chain to
        the endpoint — the receiver's ACK path *is* that hand-off when the
        flow has no reverse hops (the ideal return path).
        """
        if flow_id in self.flows:
            raise ValueError(f"flow {flow_id} already attached")
        spec = self.spec
        rtt = spec.rtt_for_flow(flow_id)
        forward, reverse = spec.forward_hops_for(flow_id), spec.reverse_hops_for(flow_id)
        sender.connect(self._entry(0, forward[0]))
        to_sender: Route = (rtt / 2, self._flow_lane, sender.on_ack)
        delay, lane, send_ack = (0.0, None, self._entry(1, reverse[0])) if reverse else to_sender
        receiver.connect(send_ack, delay, lane)
        for hop in forward:
            link = self.forward_links[hop]
            link.delay_stats[flow_id] = sender.stats
            if self.hop_delay_stats:
                link.hop_delay_stats[flow_id] = HopDelayStats()
        to_receiver: Route = (rtt / 2, self._flow_lane, receiver.on_packet)
        for direction, chain, last in ((0, forward, to_receiver), (1, reverse, to_sender)):
            onward: list[Route] = [(0.0, None, self._entry(direction, hop)) for hop in chain[1:]]
            for hop, route in zip(chain, onward + [last]):
                self.links[direction][hop].route(flow_id, route)
        endpoints = FlowEndpoints(sender=sender, receiver=receiver, rtt=rtt)
        self.flows[flow_id] = endpoints
        return endpoints

    # -- introspection ----------------------------------------------------------
    def queues(self) -> list[QueueDiscipline]:
        """Every hop's queue, forward chain first (drop/mark statistics)."""
        return [link.queue for link in self.forward_links + self.reverse_links]

    @property
    def queue_drops(self) -> int:
        """Congestive drops summed over every hop's queue, both directions."""
        return sum(queue.drops for queue in self.queues())

    @property
    def queue_marks(self) -> int:
        """ECN marks summed over every hop's queue, both directions."""
        return sum(queue.marks for queue in self.queues())

    @property
    def link_losses(self) -> int:
        """Stochastic entry-gate losses summed over every hop."""
        return sum(self.forward_losses) + sum(self.reverse_losses)
