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

from repro.netsim.events import EventScheduler, SimulationError
from repro.netsim.kernel import NO_ROUTE, Lane, Route, across, hand_off, plain_fifo, unwired
from repro.netsim.packet import Packet
from repro.netsim.queue import DropTailQueue, QueueDiscipline
from repro.netsim.stats import FlowStats, HopDelayStats

DeliverFn = Callable[[Packet], None]
DelayObserver = Callable[[Packet, float], None]
#: An eager FIFO hop's hand-off for one flow: ``(delay, arrive, stats)``.
Arrival = tuple[float, Callable[..., None], Optional[FlowStats]]


def validate_delivery_trace(delivery_trace: Sequence[float]) -> None:
    """Fail fast on malformed delivery traces (every trace-driven hop).

    An empty trace used to slip through construction and crash later with an
    ``IndexError`` inside ``effective_rate_bps``.  Specs check at
    construction; :class:`TraceDrivenLink` checks again, for links built
    directly.
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


def _nothing_owed(until: float) -> None:
    """A hop on the event path settles nothing: its events did the work."""


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
        self._observer: Optional[DelayObserver] = None
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
        self.bytes_delivered = 0
        #: Per flow id, where a packet goes once it leaves this hop: the
        #: route as seen from the near end (propagation delay folded in, see
        #: :func:`~repro.netsim.kernel.across`) and from the far end.
        self._routes: list[Route] = []
        self._onward: list[Route] = []
        #: An eager FIFO hop's per-flow :data:`Arrival`: the route's one-way
        #: delay, its sink (the receiver's ``on_packet``) and the flow's
        #: queueing statistics.  Empty on the event path; a hook bound after
        #: the build empties it, which hands the hop to the event path.
        self._arrivals: list[Arrival] = []
        #: What :meth:`settle` runs (an eager FIFO hop's backlog retirement).
        self._retire: Callable[[float], None] = _nothing_owed

    @property
    def delay_observer(self) -> Optional[DelayObserver]:
        """Optional callback invoked with ``(packet, queueing_delay_seconds)``
        whenever a packet leaves the queue; takes precedence over the
        statistics maps.  Setting one puts an eager hop on the event path."""
        return self._observer

    @delay_observer.setter
    def delay_observer(self, observer: Optional[DelayObserver]) -> None:
        self._observer = observer
        if observer is not None:
            self._arrivals.clear()

    # -- wiring --------------------------------------------------------------
    def connect(self, deliver: DeliverFn) -> None:
        """Send every packet to ``deliver`` at the far end from now on: a
        standalone link's one callback, or a spy on a routed one (which puts
        an eager hop on the event path)."""
        self.deliver = deliver
        self._routes[:] = [(self.propagation_delay, None, deliver)] * len(self._routes)
        self._arrivals.clear()

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

    def settle(self, until: float) -> None:
        """Record the wait of every packet whose service starts by ``until``,
        the instant the run stopped: an eager FIFO hop's backlog (see
        :class:`ConstantRateLink`); on the event path, events did that."""
        self._retire(until)

    def release(self) -> None:
        """Cut the hop's wiring once its simulation has run (callbacks and
        routes); queue and counters stay."""
        self.deliver = self._observer = None
        self._routes.clear()
        self._onward.clear()
        self._arrivals.clear()
        self._retire = _nothing_owed

    # -- helpers -------------------------------------------------------------
    def _emit(self, packet: Packet) -> None:
        """Record a departure and hand the packet on along its flow's route,
        or, on a link no network routed, to the ``deliver`` callback."""
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

    Its per-packet steps are closures built here, once.  On the *event path*
    they are ``receive`` (the DropTail enqueue inlined, with the seal check
    of :meth:`arm_seal`; any other discipline keeps its ``enqueue``), which
    calls ``start_transmission`` (dequeue, record the wait, serialize) when
    the link is idle, and ``_finish_transmission`` (count, hand the packet
    on along its flow's route, start the successor).  With ``lane_bytes``
    set, every serialization of a packet that size rides the scheduler's
    serialization lane; otherwise it goes on the heap.

    **Eager FIFO.**  With ``eager`` set and a plain FIFO queue (DropTail or
    infinite), a packet costs no event here at all.  A constant-rate FIFO
    serves packets in arrival order, so when a packet is enqueued its
    service start is already known by Lindley's recursion, ``start =
    max(now, free_at)``, and so is ``done = start + size * 8 / rate``: the
    same float operations as the event path's chained finish times.
    ``receive`` decides the drop and checks the seal against the packets
    whose service has not started by ``now`` (the *backlog*, one record
    each), then hands the packet to the sink of its route with its arrival
    time, ``done`` plus the route's delay: the receiver, which acknowledges
    it as of then (:meth:`~repro.netsim.receiver.Receiver.connect`).  A
    packet's wait is
    recorded once its service has started: by the first ``receive`` at or
    after ``start``, or by :meth:`settle` when the run stops, so nothing
    timed after the stop is counted.  :class:`~repro.netsim.path.PathNetwork`
    sets ``eager`` only where every route out of the hop is the flow's
    one-way delay to its receiver (a dumbbell with the ideal reverse path).
    A hook bound after the build (:meth:`connect`, ``delay_observer``) puts
    the hop back on the event path; it must be bound before the hop's first
    packet.
    """

    receive: Callable[[Packet], None]
    _finish_transmission: Callable[[Packet], None]

    def __init__(
        self,
        scheduler: EventScheduler,
        rate_bps: float,
        queue: Optional[QueueDiscipline] = None,
        propagation_delay: float = 0.0,
        name: str = "link",
        lane_bytes: Optional[int] = None,
        eager: bool = False,
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
        # Filled in place as flows attach; ``_observer`` stays a
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
            start_transmission()

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
            if link._observer is not None:
                link._observer(packet, max(0.0, now - packet.enqueue_time))
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
            # Posted through the link's attribute: ``finish_transmission``
            # calls this closure, and two closures naming each other are a
            # cycle ``release`` cannot cut.
            done = now + size_bytes * 8 / rate_bps
            if size_bytes == size_on_lane:
                ser.append([done, scheduler._sequence, link._finish_transmission, packet])
                scheduler._sequence += 1
            elif ser_lane is None:
                heappush(heap, [done, scheduler._sequence, link._finish_transmission, (packet,)])
                scheduler._sequence += 1
            else:  # an off-size packet on a lane topology
                scheduler.post_after(size_bytes * 8 / rate_bps, link._finish_transmission, packet)

        if fifo is not None:

            def receive(packet: Packet) -> None:
                if len(fifo) >= droptail.capacity_packets:
                    droptail.drops += 1
                    return
                packet.enqueue_time = now = scheduler.now
                fifo.append(packet)
                droptail._bytes = queued = droptail._bytes + packet.size_bytes
                droptail.enqueues += 1
                if not link._busy:
                    start_transmission()
                seal_drain = link._seal_drain
                if seal_drain and queued > link._seal_budget - now * seal_drain:
                    link.seal()  # this enqueue drowned the link

        else:

            def receive(packet: Packet) -> None:
                # Any other discipline: its enqueue may drop or ECN-mark.
                if discipline.enqueue(packet, scheduler.now) and not link._busy:
                    start_transmission()

        self.receive = receive
        self._finish_transmission = finish_transmission
        #: Whether the eager FIFO path carries this hop (see the class doc).
        self._eager = eager and fifo is not None
        if not self._eager:
            return

        event_receive = receive
        arrivals = self._arrivals
        #: Accepted packets whose service had not started at the last
        #: enqueue, in service order: ``(start, wait, stats, size, prior)``,
        #: ``prior`` being the start of the packet served before (see below).
        backlog: deque[tuple[float, float, Optional[FlowStats], int, float]] = deque()
        free_at = 0.0  # when the last accepted packet's service ends
        last_start = 0.0  # when it started
        backlog_bytes = 0

        def retire(until: float) -> None:
            # Every packet whose service starts by ``until`` has left the
            # queue (the hot path inlines this loop, with its tie rule).
            nonlocal backlog_bytes
            while backlog and backlog[0][0] <= until:
                _, wait, stats, size, _ = backlog.popleft()
                backlog_bytes -= size
                droptail.dequeues += 1
                link.bytes_delivered += size
                if stats is not None:
                    stats.queue_delay_sum += wait
                    stats.queue_delay_count += 1
                    if wait > stats.max_queue_delay:
                        stats.max_queue_delay = wait

        def eager_receive(packet: Packet) -> None:
            nonlocal free_at, last_start, backlog_bytes
            try:
                delay, arrive, stats = arrivals[packet.flow_id]
            except IndexError:
                # A hook bound after the build: the event path carries the
                # hop, which it can only do from the first packet on.
                if free_at:
                    raise SimulationError(
                        f"{link.name}: flow {packet.flow_id} has no eager route "
                        "(a hook bound after the hop's first packet?)"
                    ) from None
                event_receive(packet)
                return
            now = scheduler.now
            while backlog:
                start, wait, waited, size, prior = backlog[0]
                # A packet queued behind another starts when that one's
                # finish event would run: at ``start == now`` the event path
                # ran whichever of it and this event was posted first.  The
                # finish was posted when its packet started, at ``prior``;
                # this event, the sender's ACK, on arrival, ``delay`` before
                # ``now`` (a timer, posted earlier still, takes that rule
                # too).  A packet that met an idle link (``wait == 0``)
                # started at once.
                if start >= now and (start > now or wait and now - prior <= delay):
                    break
                backlog.popleft()
                backlog_bytes -= size
                droptail.dequeues += 1
                link.bytes_delivered += size
                if waited is not None:
                    waited.queue_delay_sum += wait
                    waited.queue_delay_count += 1
                    if wait > waited.max_queue_delay:
                        waited.max_queue_delay = wait
            if len(backlog) >= droptail.capacity_packets:
                droptail.drops += 1
                return
            size = packet.size_bytes
            start = free_at if free_at > now else now
            free_at = done = start + size * 8 / rate_bps
            backlog.append((start, start - now, stats, size, last_start))
            last_start = start
            backlog_bytes += size
            droptail.enqueues += 1
            arrive(packet, done + delay)
            seal_drain = link._seal_drain
            if seal_drain and backlog_bytes > link._seal_budget - now * seal_drain:
                link.seal()  # this enqueue drowned the link

        self.receive = eager_receive
        self._retire = retire

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

        The check runs in the link's FIFO ``receive``, after the enqueue
        and the start of service, on every packet that enters the queue,
        whoever hands it in.  On the eager path the queued bytes are the
        backlog's (the packets whose service has not started by ``now``) plus
        the arrival's, exactly what the event path's queue holds then.
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

    def route(self, flow_id: int, onward: Route) -> None:
        super().route(flow_id, onward)
        if self._eager:
            arrivals = self._arrivals
            missing = flow_id + 1 - len(arrivals)
            if missing > 0:
                arrivals.extend([(0.0, unwired, None)] * missing)
            delay, _, arrive = self._routes[flow_id]
            arrivals[flow_id] = (delay, arrive, self.delay_stats.get(flow_id))

    def release(self) -> None:
        super().release()
        self._on_seal = None
        self.receive = self._finish_transmission = unwired


class TraceDrivenLink(LinkBase):
    """A link whose delivery opportunities come from a timestamp trace.

    The paper replays measured Verizon/AT&T LTE downlink traces: packets are
    queued by the network until the instant the trace says a packet was
    delivered, at which point exactly one MTU-sized packet may leave.  This
    class reproduces that behaviour from a sequence of delivery timestamps
    (seconds, ascending).  If the simulation outlasts the trace, the trace is
    repeated with a time offset (``cyclic=True``, the default).

    Its per-packet steps are closures built here, once, like
    :class:`ConstantRateLink`'s: ``receive`` (start the opportunity clock on
    the first packet, enqueue; the DropTail enqueue inlined) and
    ``_opportunity`` (dequeue one packet, record its wait, hand it on along
    its flow's route, post the next opportunity), one frame per
    opportunity.
    """

    receive: Callable[[Packet], None]
    _opportunity: Callable[[], None]

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
        self.delivery_times = times = list(delivery_times)
        self.mss_bytes = mss_bytes
        self._started = False
        self.wasted_opportunities = 0

        link = self
        discipline = self.queue
        fifo = plain_fifo(discipline)
        droptail = cast(DropTailQueue, discipline)  # only touched when ``fifo`` is set
        heap = scheduler._heap
        routes = self._routes
        stats_map = self.delay_stats
        hop_map = self.hop_delay_stats
        n_times = len(times)
        # Guard against zero-length traces looping at the same instant.
        cycle = max(times[-1] - times[0], 1e-3)
        index = 0  # the trace entry of the opportunity posted last
        offset = 0.0  # the time the current cycle of the trace is shifted by

        def _opportunity() -> None:
            nonlocal index, offset
            index += 1
            now = scheduler.now
            if fifo:
                packet: Optional[Packet] = fifo.popleft()
                droptail._bytes -= packet.size_bytes
                droptail.dequeues += 1
            elif fifo is None:
                packet = discipline.dequeue(now)
            else:
                packet = None
            if packet is None:
                link.wasted_opportunities += 1
            else:
                if link._observer is not None:
                    link._observer(packet, max(0.0, now - packet.enqueue_time))
                else:
                    stats = stats_map.get(packet.flow_id)
                    if stats is not None:
                        delay = now - packet.enqueue_time
                        if delay < 0.0:
                            delay = 0.0
                        stats.queue_delay_sum += delay
                        stats.queue_delay_count += 1
                        if delay > stats.max_queue_delay:
                            stats.max_queue_delay = delay
                        hop = hop_map.get(packet.flow_id)
                        if hop is not None:
                            hop.delay_sum += delay
                            hop.count += 1
                            if delay > hop.max_delay:
                                hop.max_delay = delay
                try:
                    route = routes[packet.flow_id]
                except IndexError:
                    link._emit(packet)  # a link no network routed
                else:
                    link.bytes_delivered += packet.size_bytes
                    # No lane holds entries beside a trace link (it is never a
                    # dumbbell's), so a heap push needs no ``_heap_version``.
                    if route[0]:
                        heappush(heap, [now + route[0], scheduler._sequence, route[2], (packet,)])
                        scheduler._sequence += 1
                    else:
                        route[2](packet)
            if index >= n_times:
                if not cyclic:
                    return
                offset += cycle
                index = 0
            when = offset + times[index]
            if now > when:
                when = now
            # Posted through the link's attribute: a closure naming itself
            # is a cycle ``release`` cannot cut.
            heappush(heap, [when, scheduler._sequence, link._opportunity, ()])
            scheduler._sequence += 1

        if fifo is not None:

            def receive(packet: Packet) -> None:
                if not link._started:
                    link.start()
                if len(fifo) >= droptail.capacity_packets:
                    droptail.drops += 1
                    return
                packet.enqueue_time = scheduler.now
                fifo.append(packet)
                droptail._bytes += packet.size_bytes
                droptail.enqueues += 1

        else:

            def receive(packet: Packet) -> None:
                if not link._started:
                    link.start()
                discipline.enqueue(packet, scheduler.now)

        self.receive = receive
        self._opportunity = _opportunity

    def start(self) -> None:
        """Begin scheduling delivery opportunities (idempotent): the first
        is the trace's first instant, or now if that has passed."""
        if self._started:
            return
        self._started = True
        self.scheduler.post(max(self.delivery_times[0], self.scheduler.now), self._opportunity)

    def release(self) -> None:
        super().release()
        self.receive = self._opportunity = unwired

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
