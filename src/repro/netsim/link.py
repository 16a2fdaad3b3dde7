"""Bottleneck links: constant-rate and trace-driven (cellular).

A link owns a queue discipline and a propagation delay.  Arriving packets are
offered to the queue; the link serializes packets at its transmission rate
(constant-rate links) or at trace-defined delivery instants (trace-driven
links, modelling a time-varying cellular downlink) and hands each transmitted
packet on along its flow's route after the propagation delay.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Optional, Sequence, Union, cast

from repro.netsim.events import EventScheduler
from repro.netsim.kernel import NO_ROUTE, Lane, Route, across, hand_off, plain_fifo, unwired
from repro.netsim.network import validate_delivery_trace, validate_mss
from repro.netsim.packet import Packet
from repro.netsim.queue import DropTailQueue, QueueDiscipline
from repro.netsim.stats import FlowStats, HopDelayStats

DeliverFn = Callable[[Packet], None]
DelayObserver = Callable[[Packet, float], None]


class LinkBase:
    """Shared bookkeeping for all link types."""

    def __init__(
        self,
        scheduler: EventScheduler,
        queue: Optional[QueueDiscipline] = None,
        propagation_delay: float = 0.0,
        name: str = "link",
    ) -> None:
        self.scheduler = scheduler
        self.queue = queue if queue is not None else DropTailQueue()
        self.propagation_delay = propagation_delay
        self.name = name
        #: The far end of the link: the callback :meth:`connect` set, or, on
        #: a routed link, the per-flow onward hand-off (see :meth:`route`).
        self.deliver: Optional[DeliverFn] = None
        #: Optional callback invoked with (packet, queueing_delay_seconds)
        #: whenever a packet leaves the queue; takes precedence over the
        #: statistics maps below.
        self.delay_observer: Optional[DelayObserver] = None
        #: Flow id -> :class:`~repro.netsim.stats.FlowStats` whose
        #: queueing-delay counters the link updates inline, one sample per
        #: transmitted packet.  A :class:`~repro.netsim.path.PathNetwork`
        #: registers each flow at every forward hop it crosses (reverse hops
        #: stay empty: ACK queueing shows in the RTT statistics instead).
        self.delay_stats: dict[int, FlowStats] = {}
        #: Flow id -> :class:`~repro.netsim.stats.HopDelayStats`: which hop
        #: of a multi-hop forward chain contributed a flow's queueing.
        #: Updated in addition to ``delay_stats``; empty on a one-forward-hop
        #: path, whose breakdown would repeat the flow totals.
        self.hop_delay_stats: dict[int, HopDelayStats] = {}
        self.packets_delivered = 0
        self.bytes_delivered = 0
        #: Per flow id, where a packet goes once it leaves this hop: the
        #: route as seen from the near end (propagation delay folded in, see
        #: :func:`~repro.netsim.kernel.across`) and from the far end.
        self._routes: list[Route] = []
        self._onward: list[Route] = []

    # -- wiring --------------------------------------------------------------
    def connect(self, deliver: DeliverFn) -> None:
        """Send every packet to ``deliver`` at the far end from now on: a
        standalone link's one callback, or a spy on a routed one."""
        self.deliver = deliver
        self._routes[:] = [(self.propagation_delay, None, deliver)] * len(self._routes)

    def route(self, flow_id: int, onward: Route) -> None:
        """Hand packets of ``flow_id`` on along ``onward`` from the far end;
        ``deliver`` becomes that per-flow hand-off."""
        missing = flow_id + 1 - len(self._onward)
        if missing > 0:
            self._onward.extend([NO_ROUTE] * missing)
            self._routes.extend([NO_ROUTE] * missing)
        self._onward[flow_id] = onward
        self._routes[flow_id] = across(self.scheduler, self.propagation_delay, onward)
        self.deliver = self._far_end

    def _far_end(self, packet: Packet) -> None:
        hand_off(self.scheduler, self._onward[packet.flow_id], packet)

    def release(self) -> None:
        """Cut the hop's wiring once its simulation has run (callbacks and
        routes); queue and counters stay."""
        self.deliver = self.delay_observer = None
        self._routes.clear()
        self._onward.clear()

    # -- helpers -------------------------------------------------------------
    def _observe_wait(self, packet: Packet) -> None:
        """Report how long the packet waited in the queue (excludes its own
        serialization time) to the delay observer or statistics."""
        observer = self.delay_observer
        if observer is not None:
            observer(packet, max(0.0, self.scheduler.now - packet.enqueue_time))
            return
        stats = self.delay_stats.get(packet.flow_id)
        if stats is not None:
            delay = self.scheduler.now - packet.enqueue_time
            if delay < 0.0:
                delay = 0.0
            stats.queue_delay_sum += delay
            stats.queue_delay_count += 1
            if delay > stats.max_queue_delay:
                stats.max_queue_delay = delay
            hop = self.hop_delay_stats.get(packet.flow_id)
            if hop is not None:
                hop.delay_sum += delay
                hop.count += 1
                if delay > hop.max_delay:
                    hop.max_delay = delay

    def _emit(self, packet: Packet) -> None:
        """Record a departure and hand the packet on along its flow's route,
        or, on a link no network routed, to the ``deliver`` callback."""
        self.packets_delivered += 1
        self.bytes_delivered += packet.size_bytes
        try:
            route = self._routes[packet.flow_id]
        except IndexError:
            if self.deliver is None:
                raise RuntimeError(f"{self.name}: deliver callback not connected") from None
            route = (self.propagation_delay, None, self.deliver)
        hand_off(self.scheduler, route, packet)


class ConstantRateLink(LinkBase):
    """A fixed-rate link that serializes packets at ``rate_bps`` bits/second.

    Its per-packet steps are closures built here, once: ``receive`` (the
    DropTail enqueue inlined; any other discipline keeps its ``enqueue``),
    ``_start_transmission`` (dequeue, record the wait, serialize) and
    ``_finish_transmission`` (count, hand the packet on along its flow's
    route, and start the successor: the body of ``_start_transmission``
    pasted in place of the call, one frame less per packet).  With
    ``lane_bytes`` set, every serialization of a packet that size rides the
    scheduler's serialization lane; otherwise it goes on the heap.
    """

    receive: Callable[[Packet], None]
    _start_transmission: Callable[[], None]
    _finish_transmission: Callable[[Packet], None]

    def __init__(
        self,
        scheduler: EventScheduler,
        rate_bps: float,
        queue: Optional[QueueDiscipline] = None,
        propagation_delay: float = 0.0,
        name: str = "link",
        lane_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(scheduler, queue, propagation_delay, name)
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        self.rate_bps = rate_bps
        self._busy = False
        #: Seal check (see :meth:`arm_seal`): the link is drowned once
        #: ``queued bytes > _seal_budget - now * _seal_drain``.  Unarmed
        #: links keep ``_seal_drain == 0.0``, which skips the check.
        self._seal_drain = 0.0
        self._seal_budget = 0.0
        self._on_seal: Optional[Callable[[], None]] = None

        link = self
        discipline = self.queue
        fifo = plain_fifo(discipline)
        droptail = cast(DropTailQueue, discipline)  # only touched when ``fifo`` is set
        heap = scheduler._heap
        ser_lane: Lane = scheduler._lanes[0] if lane_bytes is not None else None
        # Appended to only when ``lane_bytes`` matches, i.e. on a lane topology.
        ser = cast("deque[list[Any]]", ser_lane)
        size_on_lane = -1 if lane_bytes is None else lane_bytes
        routes = self._routes
        # Filled in place as flows attach; ``delay_observer`` stays a
        # call-time read (tests attach it late).
        stats_map = self.delay_stats
        hop_map = self.hop_delay_stats

        def finish_transmission(packet: Packet) -> None:
            now = scheduler.now
            try:
                route = routes[packet.flow_id]
            except IndexError:
                link._emit(packet)  # a link no network routed
            else:
                link.packets_delivered += 1
                link.bytes_delivered += packet.size_bytes
                lane = route[1]
                if lane is not None:
                    lane.append([now + route[0], scheduler._sequence, route[2], packet])
                    scheduler._sequence += 1
                elif route[0]:
                    heappush(heap, [now + route[0], scheduler._sequence, route[2], (packet,)])
                    scheduler._sequence += 1
                else:
                    route[2](packet)
            if fifo:
                packet = fifo.popleft()
                size_bytes = packet.size_bytes
                droptail._bytes -= size_bytes
                droptail.dequeues += 1
            elif fifo is None:
                dequeued = discipline.dequeue(now)
                if dequeued is None:
                    link._busy = False
                    return
                packet = dequeued
                size_bytes = packet.size_bytes
            else:
                link._busy = False
                return
            if link.delay_observer is not None:
                link.delay_observer(packet, max(0.0, now - packet.enqueue_time))
            elif stats_map:
                stats = stats_map.get(packet.flow_id)
                if stats is not None:
                    delay = now - packet.enqueue_time
                    if delay < 0.0:
                        delay = 0.0
                    stats.queue_delay_sum += delay
                    stats.queue_delay_count += 1
                    if delay > stats.max_queue_delay:
                        stats.max_queue_delay = delay
                    if hop_map:
                        hop = hop_map.get(packet.flow_id)
                        if hop is not None:
                            hop.delay_sum += delay
                            hop.count += 1
                            if delay > hop.max_delay:
                                hop.max_delay = delay
            link._busy = True
            # Posted through the link's attribute: a closure naming itself
            # is a cycle ``release`` cannot cut.
            done = now + size_bytes * 8 / rate_bps
            if size_bytes == size_on_lane:
                ser.append([done, scheduler._sequence, link._finish_transmission, packet])
                scheduler._sequence += 1
            elif ser_lane is None:
                heappush(heap, [done, scheduler._sequence, link._finish_transmission, (packet,)])
                scheduler._sequence += 1
            else:  # an off-size packet on a lane topology
                scheduler.post_after(size_bytes * 8 / rate_bps, link._finish_transmission, packet)

        def start_transmission() -> None:
            now = scheduler.now
            if fifo:
                packet = fifo.popleft()
                size_bytes = packet.size_bytes
                droptail._bytes -= size_bytes
                droptail.dequeues += 1
            elif fifo is None:
                dequeued = discipline.dequeue(now)
                if dequeued is None:
                    link._busy = False
                    return
                packet = dequeued
                size_bytes = packet.size_bytes
            else:
                link._busy = False
                return
            if link.delay_observer is not None:
                link.delay_observer(packet, max(0.0, now - packet.enqueue_time))
            elif stats_map:
                stats = stats_map.get(packet.flow_id)
                if stats is not None:
                    delay = now - packet.enqueue_time
                    if delay < 0.0:
                        delay = 0.0
                    stats.queue_delay_sum += delay
                    stats.queue_delay_count += 1
                    if delay > stats.max_queue_delay:
                        stats.max_queue_delay = delay
                    if hop_map:
                        hop = hop_map.get(packet.flow_id)
                        if hop is not None:
                            hop.delay_sum += delay
                            hop.count += 1
                            if delay > hop.max_delay:
                                hop.max_delay = delay
            link._busy = True
            done = now + size_bytes * 8 / rate_bps
            if size_bytes == size_on_lane:
                ser.append([done, scheduler._sequence, finish_transmission, packet])
                scheduler._sequence += 1
            elif ser_lane is None:
                heappush(heap, [done, scheduler._sequence, finish_transmission, (packet,)])
                scheduler._sequence += 1
            else:  # an off-size packet on a lane topology
                scheduler.post_after(size_bytes * 8 / rate_bps, finish_transmission, packet)

        if fifo is not None:

            def receive(packet: Packet) -> None:
                if len(fifo) >= droptail.capacity_packets:
                    droptail.drops += 1
                    return
                packet.enqueue_time = scheduler.now
                fifo.append(packet)
                droptail._bytes += packet.size_bytes
                droptail.enqueues += 1
                if not link._busy:
                    start_transmission()

        else:

            def receive(packet: Packet) -> None:
                # Any other discipline: its enqueue may drop or ECN-mark.
                if discipline.enqueue(packet, scheduler.now) and not link._busy:
                    start_transmission()

        self.receive = receive
        self._start_transmission = start_transmission
        self._finish_transmission = finish_transmission

    @property
    def rate_pps(self) -> float:
        """Nominal rate in 1500-byte packets per second (used by XCP)."""
        return self.rate_bps / (1500 * 8)

    # -- sealing a drowned link ----------------------------------------------
    def arm_seal(
        self, end_time: float, mss_bytes: int, on_seal: Callable[[], None]
    ) -> None:
        """Watch for the instant nothing enqueued any more can leave by ``end_time``.

        Only sound on a link whose queue is a loss-free, never-dropping FIFO
        fed ``mss_bytes`` packets (the caller vouches for that; see
        :attr:`~repro.netsim.path.PathSpec.sealable`).  When an enqueue
        leaves ``Q`` bytes queued at time ``t``, a later arrival waits behind
        at least ``Q`` minus what the link dequeues in between — at most one
        packet per serialization time plus the one dequeue that may be
        imminent — so it cannot start service before ``t + (Q - mss) * 8 /
        rate``.  Once that exceeds ``end_time`` the link is *drowned*:
        ``on_seal`` fires (once), and whatever is transmitted afterwards can
        never be dequeued, delivered or acknowledged within the run.  The
        threshold carries a second MSS of slack so rounding in the chained
        event times (thousands of ``t += size * 8 / rate`` steps) can never
        let a packet the proof calls dead start service at ``end_time``.

        The check runs in the senders' inlined enqueue
        (:meth:`~repro.netsim.sender.Sender.connect`), which every sender
        feeding such a link takes; arm before the senders are connected.
        """
        self._seal_drain = self.rate_bps / 8
        self._seal_budget = end_time * self._seal_drain + 2 * mss_bytes
        self._on_seal = on_seal

    def seal(self) -> None:
        """Declare the link drowned and notify — once, however often the
        check keeps firing afterwards."""
        on_seal, self._on_seal = self._on_seal, None
        if on_seal is not None:
            on_seal()

    def release(self) -> None:
        super().release()
        self._on_seal = None
        self.receive = self._start_transmission = self._finish_transmission = unwired


class TraceDrivenLink(LinkBase):
    """A link whose delivery opportunities come from a timestamp trace.

    The paper replays measured Verizon/AT&T LTE downlink traces: packets are
    queued by the network until the instant the trace says a packet was
    delivered, at which point exactly one MTU-sized packet may leave.  This
    class reproduces that behaviour from a sequence of delivery timestamps
    (seconds, ascending).  If the simulation outlasts the trace, the trace is
    repeated with a time offset (``cyclic=True``, the default).
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        delivery_times: Sequence[float],
        queue: Optional[QueueDiscipline] = None,
        propagation_delay: float = 0.0,
        cyclic: bool = True,
        name: str = "trace-link",
        mss_bytes: int = 1500,
    ) -> None:
        super().__init__(scheduler, queue, propagation_delay, name)
        validate_delivery_trace(delivery_times)
        validate_mss(mss_bytes)
        self.delivery_times = list(delivery_times)
        self.mss_bytes = mss_bytes
        self.cyclic = cyclic
        self._index = 0
        self._cycle_offset = 0.0
        self._started = False
        self.wasted_opportunities = 0

    def start(self) -> None:
        """Begin scheduling delivery opportunities (idempotent)."""
        if self._started:
            return
        self._started = True
        self._schedule_next_opportunity()

    def _next_opportunity_time(self) -> Optional[float]:
        if self._index >= len(self.delivery_times):
            if not self.cyclic:
                return None
            span = self.delivery_times[-1] - self.delivery_times[0]
            # Guard against zero-length traces looping at the same instant.
            self._cycle_offset += max(span, 1e-3)
            self._index = 0
        return self._cycle_offset + self.delivery_times[self._index]

    def _schedule_next_opportunity(self) -> None:
        when = self._next_opportunity_time()
        if when is None:
            return
        when = max(when, self.scheduler.now)
        self.scheduler.post(when, self._opportunity)

    def _opportunity(self) -> None:
        self._index += 1
        packet = self.queue.dequeue(self.scheduler.now)
        if packet is None:
            self.wasted_opportunities += 1
        else:
            self._observe_wait(packet)
            self._emit(packet)
        self._schedule_next_opportunity()

    def receive(self, packet: Packet) -> None:
        self.start()
        self.queue.enqueue(packet, self.scheduler.now)

    @property
    def mean_rate_bps(self) -> float:
        """Long-term average delivery rate implied by the trace (for XCP).

        Each delivery opportunity carries one ``mss_bytes`` segment, so the
        capacity estimate scales with the configured MSS rather than assuming
        1500-byte packets.
        """
        span = self.delivery_times[-1] - self.delivery_times[0]
        if span <= 0:
            return float("inf")
        return (len(self.delivery_times) - 1) * self.mss_bytes * 8 / span


#: A hop of a path: either kind of link.
Link = Union[ConstantRateLink, TraceDrivenLink]
