"""Topology construction: the dumbbell network of Figure 2.

A :class:`NetworkSpec` describes the bottleneck (rate or trace, queue
discipline, buffer, per-flow round-trip times); :class:`DumbbellNetwork`
instantiates the bottleneck link and wires each sender-receiver pair through
it.  All data packets share the single bottleneck queue in the forward
direction; acknowledgments return over an uncongested path, as in the paper's
single-bottleneck evaluation topologies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence, Union

from repro.netsim.aqm import CoDelQueue, REDQueue
from repro.netsim.events import EventScheduler
from repro.netsim.link import ConstantRateLink, LinkBase, TraceDrivenLink
from repro.netsim.packet import Packet
from repro.netsim.queue import DropTailQueue, InfiniteQueue, QueueDiscipline
from repro.netsim.receiver import Receiver
from repro.netsim.sender import Sender
from repro.netsim.sfq import SfqCoDelQueue
from repro.netsim.stats import FlowStats

QueueFactory = Callable[[], QueueDiscipline]

#: Built-in queue discipline names accepted by :class:`NetworkSpec`.
QUEUE_KINDS = ("droptail", "infinite", "codel", "sfqcodel", "red", "red-dctcp", "xcp")


def validate_delivery_trace(delivery_trace: Sequence[float], what: str) -> None:
    """Fail fast on malformed delivery traces (shared by every spec kind).

    An empty trace used to slip through construction and crash later with an
    ``IndexError`` inside ``effective_rate_bps``; a decreasing one failed
    only deep inside :class:`~repro.netsim.link.TraceDrivenLink`.
    """
    times = list(delivery_trace)
    if not times:
        raise ValueError(
            "delivery_trace must contain at least one delivery instant "
            f"(got an empty trace); omit it for a constant-rate {what}"
        )
    for i, (a, b) in enumerate(zip(times, times[1:])):
        if b < a:
            raise ValueError(
                "delivery_trace timestamps must be non-decreasing: "
                f"entry {i + 1} ({b!r}) precedes entry {i} ({a!r}); "
                "delivery traces are cumulative instants, not "
                "inter-delivery gaps"
            )


def build_queue(
    queue: Union[str, QueueFactory],
    *,
    buffer_packets: int,
    rng: Optional[random.Random] = None,
    codel_target: float = 0.005,
    codel_interval: float = 0.100,
    red_min_thresh: float = 20.0,
    red_max_thresh: float = 60.0,
    dctcp_marking_threshold: float = 65.0,
    red_idle_decay_seconds: float = 0.001,
    xcp_rate_bps: float = 10e6,
    xcp_mean_rtt: float = 0.05,
) -> QueueDiscipline:
    """Instantiate a queue discipline from a kind name (or factory).

    The single construction path shared by :class:`NetworkSpec` (dumbbell
    bottleneck) and :class:`~repro.netsim.path.LinkSpec` (each hop of a
    multi-bottleneck path), so a queue kind behaves identically wherever it
    appears in a topology.
    """
    if callable(queue):
        return queue()
    if queue == "droptail":
        return DropTailQueue(capacity_packets=buffer_packets)
    if queue == "infinite":
        return InfiniteQueue()
    if queue == "codel":
        return CoDelQueue(
            capacity_packets=buffer_packets,
            target=codel_target,
            interval=codel_interval,
        )
    if queue == "sfqcodel":
        return SfqCoDelQueue(
            capacity_packets=buffer_packets,
            target=codel_target,
            interval=codel_interval,
        )
    if queue == "red":
        return REDQueue(
            capacity_packets=buffer_packets,
            min_thresh=red_min_thresh,
            max_thresh=red_max_thresh,
            rng=rng,
            idle_decay_seconds=red_idle_decay_seconds,
        )
    if queue == "red-dctcp":
        return REDQueue(
            capacity_packets=buffer_packets,
            min_thresh=dctcp_marking_threshold,
            max_thresh=dctcp_marking_threshold + 1,
            dctcp_mode=True,
            ecn=True,
            rng=rng,
            idle_decay_seconds=red_idle_decay_seconds,
        )
    if queue == "xcp":
        # Imported lazily: protocols depend on netsim, not the reverse.
        from repro.protocols.xcp import XCPRouterQueue

        return XCPRouterQueue(
            capacity_packets=buffer_packets,
            link_rate_bps=xcp_rate_bps,
            control_interval=max(xcp_mean_rtt, 0.01),
        )
    raise ValueError(f"unknown queue kind {queue!r}; expected one of {QUEUE_KINDS}")


@dataclass
class NetworkSpec:
    """Parameters of a single-bottleneck (dumbbell) network.

    Parameters
    ----------
    link_rate_bps:
        Bottleneck rate in bits/second (ignored when ``delivery_trace`` is set).
    rtt:
        Baseline round-trip propagation delay in seconds.  Either a scalar
        applied to every flow or a per-flow sequence (Figure 10 uses
        different RTTs per flow).
    n_flows:
        Number of sender-receiver pairs sharing the bottleneck.
    queue:
        Queue discipline name (one of :data:`QUEUE_KINDS`) or a factory
        returning a :class:`~repro.netsim.queue.QueueDiscipline`.
    buffer_packets:
        Bottleneck buffer size in packets (ignored for ``infinite``).
    delivery_trace:
        Optional sequence of packet-delivery timestamps; when given, the
        bottleneck is a :class:`~repro.netsim.link.TraceDrivenLink` replaying
        a cellular trace instead of a constant-rate link.
    loss_rate:
        Probability that a data packet is lost on the forward path *before*
        reaching the bottleneck queue (stochastic non-congestive loss, e.g. a
        lossy radio segment).  Acknowledgments are never lost — the return
        path stays ideal, as in the paper's single-bottleneck topologies.
    mss_bytes:
        Data segment size.
    """

    link_rate_bps: float = 15e6
    rtt: Union[float, Sequence[float]] = 0.150
    n_flows: int = 2
    queue: Union[str, QueueFactory] = "droptail"
    buffer_packets: int = 1000
    delivery_trace: Optional[Sequence[float]] = None
    loss_rate: float = 0.0
    mss_bytes: int = 1500
    #: CoDel / RED parameters, consulted only by the relevant queue kinds.
    codel_target: float = 0.005
    codel_interval: float = 0.100
    red_min_thresh: float = 20.0
    red_max_thresh: float = 60.0
    dctcp_marking_threshold: float = 65.0

    def __post_init__(self) -> None:
        if self.n_flows <= 0:
            raise ValueError("n_flows must be positive")
        if self.link_rate_bps <= 0 and self.delivery_trace is None:
            raise ValueError("link_rate_bps must be positive")
        if self.buffer_packets <= 0:
            raise ValueError("buffer_packets must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if isinstance(self.queue, str) and self.queue not in QUEUE_KINDS:
            raise ValueError(f"unknown queue kind {self.queue!r}; expected one of {QUEUE_KINDS}")
        if self.delivery_trace is not None:
            validate_delivery_trace(self.delivery_trace, "bottleneck")

    def rtt_for_flow(self, flow_id: int) -> float:
        """Baseline RTT for a given flow (supports per-flow RTT sequences)."""
        if isinstance(self.rtt, (int, float)):
            return float(self.rtt)
        rtts = list(self.rtt)
        if len(rtts) < self.n_flows:
            raise ValueError(
                f"rtt sequence has {len(rtts)} entries but the spec has {self.n_flows} flows"
            )
        return float(rtts[flow_id])

    def bandwidth_delay_product_packets(self, flow_id: int = 0) -> float:
        """Bandwidth-delay product in packets (useful for sanity checks)."""
        return self.link_rate_bps * self.rtt_for_flow(flow_id) / (self.mss_bytes * 8)

    def mean_rtt(self) -> float:
        """Mean baseline RTT across the spec's flows (XCP's control interval)."""
        if isinstance(self.rtt, (int, float)):
            return float(self.rtt)
        rtts = list(self.rtt)
        return sum(rtts) / len(rtts)

    def make_queue(self, rng: Optional[random.Random] = None) -> QueueDiscipline:
        """Instantiate the configured queue discipline."""
        return build_queue(
            self.queue,
            buffer_packets=self.buffer_packets,
            rng=rng,
            codel_target=self.codel_target,
            codel_interval=self.codel_interval,
            red_min_thresh=self.red_min_thresh,
            red_max_thresh=self.red_max_thresh,
            dctcp_marking_threshold=self.dctcp_marking_threshold,
            red_idle_decay_seconds=self.mss_bytes * 8 / self.effective_rate_bps(),
            xcp_rate_bps=self.effective_rate_bps(),
            xcp_mean_rtt=self.mean_rtt(),
        )

    @property
    def sealable(self) -> bool:
        """Whether a drowned bottleneck may be sealed (README "Performance").

        True for exactly the design-time model of §5.1: a constant-rate link
        behind the built-in unlimited FIFO with no stochastic loss.  There a
        packet, once queued, is served strictly in arrival order at a known
        rate and nothing is ever dropped, so "this packet cannot leave before
        the run ends" is decidable at enqueue time.  A finite buffer, any
        AQM, a trace-driven link or ``loss_rate > 0`` breaks one of those
        premises; a queue *factory* is opaque and never eligible.
        """
        return (
            self.queue == "infinite"
            and self.delivery_trace is None
            and self.loss_rate == 0.0
        )

    def effective_rate_bps(self) -> float:
        """Bottleneck rate: the constant rate, or the trace's long-term mean."""
        if self.delivery_trace is None:
            return self.link_rate_bps
        times = list(self.delivery_trace)
        span = times[-1] - times[0]
        if span <= 0:
            return self.link_rate_bps
        return (len(times) - 1) * self.mss_bytes * 8 / span

    # -- generalisation hooks ---------------------------------------------------
    def with_queue(self, queue: Union[str, QueueFactory]) -> "NetworkSpec":
        """A copy with the bottleneck queue discipline replaced (the hook the
        scheme runner uses; :class:`~repro.netsim.path.PathSpec` offers the
        same method, applied to every forward hop)."""
        return replace(self, queue=queue)

    def to_path_spec(self) -> "PathSpec":
        """This dumbbell as a single-hop :class:`~repro.netsim.path.PathSpec`.

        The conversion is exact: running the resulting path spec through
        :class:`~repro.netsim.path.PathNetwork` reproduces the
        :class:`DumbbellNetwork` run bit-identically (pinned by
        ``tests/test_path.py``) — the dumbbell *is* the one-forward-hop,
        ideal-reverse special case of a path.
        """
        from repro.netsim.path import LinkSpec, PathSpec

        return PathSpec(
            forward=(
                LinkSpec(
                    rate_bps=self.link_rate_bps,
                    queue=self.queue,
                    buffer_packets=self.buffer_packets,
                    delivery_trace=self.delivery_trace,
                    loss_rate=self.loss_rate,
                    codel_target=self.codel_target,
                    codel_interval=self.codel_interval,
                    red_min_thresh=self.red_min_thresh,
                    red_max_thresh=self.red_max_thresh,
                    dctcp_marking_threshold=self.dctcp_marking_threshold,
                    name="bottleneck",
                ),
            ),
            rtt=self.rtt,
            n_flows=self.n_flows,
            mss_bytes=self.mss_bytes,
        )

    def build_network(
        self, scheduler: EventScheduler, rng: Optional[random.Random] = None
    ) -> "DumbbellNetwork":
        """Materialize the topology (the dumbbell fast path)."""
        return DumbbellNetwork(scheduler, self, rng=rng)


@dataclass
class FlowEndpoints:
    """The pieces that make up one attached flow."""

    sender: Sender
    receiver: Receiver
    stats: FlowStats
    rtt: float


class DumbbellNetwork:
    """A single shared bottleneck with per-flow propagation delays."""

    def __init__(
        self,
        scheduler: EventScheduler,
        spec: NetworkSpec,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.scheduler = scheduler
        self.spec = spec
        self.rng = rng if rng is not None else random.Random(0)
        queue = spec.make_queue(self.rng)
        self.bottleneck: LinkBase
        if spec.delivery_trace is not None:
            self.bottleneck = TraceDrivenLink(
                scheduler,
                delivery_times=spec.delivery_trace,
                queue=queue,
                propagation_delay=0.0,
                name="bottleneck",
                mss_bytes=spec.mss_bytes,
            )
        else:
            self.bottleneck = ConstantRateLink(
                scheduler,
                rate_bps=spec.link_rate_bps,
                queue=queue,
                propagation_delay=0.0,
                name="bottleneck",
            )
        self.bottleneck.connect(self._deliver_data)
        #: Stochastic forward-path loss (``spec.loss_rate``): a dedicated rng
        #: (derived from the network rng only when enabled, so loss-free
        #: specs keep their exact pre-existing random streams) and a counter
        #: of packets lost before the bottleneck.
        self._loss_rng: Optional[random.Random] = None
        if spec.loss_rate > 0.0:
            self._loss_rng = random.Random(self.rng.getrandbits(32))
        self.link_losses = 0
        #: Simulated time at which the bottleneck was sealed (see
        #: :meth:`arm_seal`); ``None`` while it can still deliver.
        self.sealed_at: Optional[float] = None
        #: flow id -> FlowStats; the link updates queueing-delay counters
        #: inline instead of calling back through two observer hops.
        self._delay_stats: dict[int, FlowStats] = {}
        self.bottleneck.delay_stats = self._delay_stats
        self.flows: dict[int, FlowEndpoints] = {}
        #: flow id -> (one-way delay, receiver callback): precomputed so the
        #: per-packet forward hop is one dict lookup and one post.
        self._data_routes: dict[int, tuple[float, Callable[[Packet], None]]] = {}

    # -- sealing ---------------------------------------------------------------
    def arm_seal(self, end_time: float) -> None:
        """Let the bottleneck seal itself once it is drowned (eligible specs only).

        ``end_time`` is when the run stops.  Call before :meth:`attach_flow`:
        arming rebinds the link's ``receive``, which senders capture there.
        """
        link = self.bottleneck
        if self.spec.sealable and isinstance(link, ConstantRateLink):
            link.arm_seal(end_time, self.spec.mss_bytes, self._seal)

    def _seal(self) -> None:
        self.sealed_at = self.scheduler.now
        for endpoints in self.flows.values():
            endpoints.sender.seal()

    # -- flow attachment -------------------------------------------------------
    def attach_flow(self, flow_id: int, sender: Sender, receiver: Receiver) -> FlowEndpoints:
        """Wire a sender/receiver pair through the bottleneck."""
        if flow_id in self.flows:
            raise ValueError(f"flow {flow_id} already attached")
        rtt = self.spec.rtt_for_flow(flow_id)
        endpoints = FlowEndpoints(sender=sender, receiver=receiver, stats=sender.stats, rtt=rtt)
        if self._loss_rng is not None:
            sender.connect(self._lossy_receive)
        else:
            sender.connect(self.bottleneck.receive)
        one_way = rtt / 2
        # The return path is uncongested: bind the one-way delay and the
        # sender's ACK handler directly into the receiver's callback so no
        # per-ACK dict lookup or division remains (a partial, not a lambda —
        # the partial call is C-level, a lambda would cost a frame per ACK).
        receiver.connect(partial(self.scheduler.post_after, one_way, sender.on_ack))
        self.flows[flow_id] = endpoints
        self._delay_stats[flow_id] = sender.stats
        self._data_routes[flow_id] = (one_way, receiver.on_packet)
        return endpoints

    # -- packet plumbing -------------------------------------------------------
    def _lossy_receive(self, packet: Packet) -> None:
        """Forward-path entry when ``spec.loss_rate`` > 0: Bernoulli loss
        ahead of the bottleneck queue (the sender recovers via its normal
        loss-detection machinery)."""
        if self._loss_rng.random() < self.spec.loss_rate:
            self.link_losses += 1
            packet.release()  # drop sink: stochastic link loss
            return
        self.bottleneck.receive(packet)

    def _deliver_data(self, packet: Packet) -> None:
        route = self._data_routes.get(packet.flow_id)
        if route is None:
            packet.release()  # packet from a detached flow (should not happen)
            return
        self.scheduler.post_after(route[0], route[1], packet)

    # -- introspection ----------------------------------------------------------
    @property
    def queue(self) -> QueueDiscipline:
        """The bottleneck queue discipline (for drop/mark statistics)."""
        return self.bottleneck.queue

    # Uniform topology interface shared with PathNetwork (Simulation reads
    # these rather than reaching into the queue objects).
    @property
    def queue_drops(self) -> int:
        """Congestive drops across the topology's queues (one queue here)."""
        return self.bottleneck.queue.drops

    @property
    def queue_marks(self) -> int:
        """ECN marks across the topology's queues (one queue here)."""
        return self.bottleneck.queue.marks
