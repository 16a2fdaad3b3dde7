"""The paper-facing topology spec: the dumbbell network of Figure 2.

A :class:`NetworkSpec` describes the bottleneck (rate or trace, queue
discipline, buffer, per-flow round-trip times).  All data packets share the
single bottleneck queue in the forward direction; acknowledgments return
over an uncongested path, as in the paper's single-bottleneck evaluation
topologies.  The spec is a constructor, not an engine:
:meth:`NetworkSpec.to_path_spec` spells it as the one-forward-hop,
ideal-reverse :class:`~repro.netsim.path.PathSpec`, and
:class:`~repro.netsim.path.PathNetwork` is the one class that wires flows
through links.  The queue factory and the fail-fast checks every spec kind
shares live here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.netsim.aqm import CoDelQueue, REDQueue
from repro.netsim.queue import DropTailQueue, InfiniteQueue, QueueDiscipline
from repro.netsim.sfq import SfqCoDelQueue

if TYPE_CHECKING:  # path imports this module; the spec converts lazily
    from repro.netsim.path import LinkSpec, PathSpec

QueueFactory = Callable[[], QueueDiscipline]

#: Built-in queue discipline names accepted by :class:`NetworkSpec`.
QUEUE_KINDS = ("droptail", "infinite", "codel", "sfqcodel", "red", "red-dctcp", "xcp")


def validate_delivery_trace(delivery_trace: Sequence[float]) -> None:
    """Fail fast on malformed delivery traces (every spec kind's hops).

    An empty trace used to slip through construction and crash later with an
    ``IndexError`` inside ``effective_rate_bps``.  Specs check at
    construction; :class:`~repro.netsim.link.TraceDrivenLink` checks again,
    for links built directly.
    """
    times = list(delivery_trace)
    if not times:
        raise ValueError(
            "delivery_trace must contain at least one delivery instant "
            "(got an empty trace); omit it for a constant-rate link"
        )
    for i, (a, b) in enumerate(zip(times, times[1:])):
        if b < a:
            raise ValueError(
                "delivery_trace timestamps must be non-decreasing: "
                f"entry {i + 1} ({b!r}) precedes entry {i} ({a!r}); "
                "delivery traces are cumulative instants, not "
                "inter-delivery gaps"
            )


def validate_mss(mss_bytes: int) -> None:
    """Fail fast on a non-positive segment size (specs and trace links)."""
    if mss_bytes <= 0:
        raise ValueError("mss_bytes must be positive")


def validate_flows(
    rtt: Union[float, Sequence[float]], n_flows: int, mss_bytes: int
) -> None:
    """Fail fast on the per-flow fields (shared by every spec kind).

    A negative RTT used to die inside a callback (``negative delay``) under
    the generic kernel and to *run* under the fused one, whose closures post
    ``now + delay`` unchecked; a short RTT sequence surfaced only when the
    missing flow was attached.
    """
    if n_flows <= 0:
        raise ValueError("n_flows must be positive")
    validate_mss(mss_bytes)
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

    The single construction path behind every hop of every topology
    (:meth:`~repro.netsim.path.LinkSpec.make_queue`), so a queue kind
    behaves identically wherever it appears.
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
        # The checks are the path spec's own: the flow fields here, the
        # bottleneck's by building the one hop it becomes.
        validate_flows(self.rtt, self.n_flows, self.mss_bytes)
        self.bottleneck()

    def bottleneck(self) -> "LinkSpec":
        """The bottleneck as the one hop of :meth:`to_path_spec`."""
        from repro.netsim.path import LinkSpec

        return LinkSpec(
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
        )

    def rtt_for_flow(self, flow_id: int) -> float:
        """Baseline RTT for a given flow (supports per-flow RTT sequences)."""
        if isinstance(self.rtt, (int, float)):
            return float(self.rtt)
        return float(self.rtt[flow_id])

    def bandwidth_delay_product_packets(self, flow_id: int = 0) -> float:
        """Bandwidth-delay product in packets: link rate × the flow's round trip.

        The round trip, not the one-way delay, because a window must cover
        the data in flight until its ACK returns.  The NIST dumbbell script
        in SNIPPETS.md multiplies packets per ms by the *one-way* delay, half
        of this; its Mbps variant uses the round trip, as here.
        """
        return self.link_rate_bps * self.rtt_for_flow(flow_id) / (self.mss_bytes * 8)

    def make_queue(self, rng: Optional[random.Random] = None) -> QueueDiscipline:
        """Instantiate the configured queue discipline."""
        path = self.to_path_spec()
        return path.forward[0].make_queue(rng, self.mss_bytes, path.mean_rtt())

    def effective_rate_bps(self) -> float:
        """Bottleneck rate: the constant rate, or the trace's long-term mean."""
        return self.bottleneck().effective_rate_bps(self.mss_bytes)

    # -- generalisation hooks ---------------------------------------------------
    def with_queue(self, queue: Union[str, QueueFactory]) -> "NetworkSpec":
        """A copy with the bottleneck queue discipline replaced (the hook the
        scheme runner uses; :class:`~repro.netsim.path.PathSpec` offers the
        same method, applied to every forward hop)."""
        return replace(self, queue=queue)

    def to_path_spec(self) -> "PathSpec":
        """This dumbbell as the :class:`~repro.netsim.path.PathSpec` it is:
        one forward hop with no propagation delay of its own and an ideal
        reverse path.  Every simulation of a dumbbell runs this spec."""
        from repro.netsim.path import PathSpec

        return PathSpec(
            forward=(self.bottleneck(),),
            rtt=self.rtt,
            n_flows=self.n_flows,
            mss_bytes=self.mss_bytes,
        )
