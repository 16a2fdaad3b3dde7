"""Bottleneck links: constant-rate and trace-driven (cellular).

A link owns a queue discipline and a propagation delay.  Arriving packets are
offered to the queue; the link serializes packets at its transmission rate
(constant-rate links) or at trace-defined delivery instants (trace-driven
links, modelling a time-varying cellular downlink) and hands each transmitted
packet to a delivery callback after the propagation delay.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.netsim.events import EventScheduler
from repro.netsim.packet import Packet
from repro.netsim.queue import DropTailQueue, QueueDiscipline

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
        self.deliver: Optional[DeliverFn] = None
        #: Optional callback invoked with (packet, queueing_delay_seconds)
        #: whenever a packet leaves the queue; used for delay statistics.
        self.delay_observer: Optional[DelayObserver] = None
        #: Fast path for the common consumer of the delay observer: a map
        #: from flow id to a :class:`~repro.netsim.stats.FlowStats` whose
        #: queueing-delay counters the link updates inline (two callback
        #: hops per transmitted packet otherwise).  Takes precedence over
        #: ``delay_observer`` when set.  The map may be shared by several
        #: links — a multi-hop :class:`~repro.netsim.path.PathNetwork`
        #: attaches one map to every forward hop, so a flow accumulates one
        #: queueing-delay sample per hop traversed.
        self.delay_stats: Optional[dict] = None
        #: Optional per-(flow, this-hop) attribution map: flow id ->
        #: :class:`~repro.netsim.stats.HopDelayStats`.  Unlike
        #: ``delay_stats`` (shared across a path's forward hops, folding all
        #: hops into the flow totals), this map is private to one link, so a
        #: multi-hop :class:`~repro.netsim.path.PathNetwork` can answer
        #: *which* bottleneck contributed the queueing.  Updated in addition
        #: to the flow totals; ``None`` (any one-forward-hop path) costs one
        #: attribute check per transmitted packet.
        self.hop_delay_stats: Optional[dict] = None
        self.packets_delivered = 0
        self.bytes_delivered = 0

    # -- wiring --------------------------------------------------------------
    def connect(self, deliver: DeliverFn) -> None:
        """Set the callback that receives packets at the far end of the link."""
        self.deliver = deliver

    def release(self) -> None:
        """Cut the hop's wiring once its simulation has run — callbacks, and what
        shadows a method (kernel closure, armed seal, spy); queue and counters stay."""
        self.deliver = self.delay_observer = None
        for name in ("receive", "connect", "_start_transmission", "_finish_transmission"):
            self.__dict__.pop(name, None)

    # -- helpers -------------------------------------------------------------
    def _observe_wait(self, packet: Packet) -> None:
        """Report how long the packet waited in the queue (excludes its own
        serialization time) to the delay statistics, if any are attached.

        An explicitly set ``delay_observer`` wins over ``delay_stats`` so
        that overriding the hook on a wired-up network keeps working the way
        it always has; the stats map is the allocation-free default path.
        """
        observer = self.delay_observer
        if observer is not None:
            observer(packet, max(0.0, self.scheduler.now - packet.enqueue_time))
            return
        stats_map = self.delay_stats
        if stats_map is not None:
            stats = stats_map.get(packet.flow_id)
            if stats is not None:
                delay = self.scheduler.now - packet.enqueue_time
                if delay < 0.0:
                    delay = 0.0
                stats.queue_delay_sum += delay
                stats.queue_delay_count += 1
                if delay > stats.max_queue_delay:
                    stats.max_queue_delay = delay
                hop_map = self.hop_delay_stats
                if hop_map is not None:
                    hop = hop_map.get(packet.flow_id)
                    if hop is not None:
                        hop.delay_sum += delay
                        hop.count += 1
                        if delay > hop.max_delay:
                            hop.max_delay = delay

    def _emit(self, packet: Packet) -> None:
        """Record a departure and schedule arrival at the far end."""
        if self.deliver is None:
            raise RuntimeError(f"{self.name}: deliver callback not connected")
        self.packets_delivered += 1
        self.bytes_delivered += packet.size_bytes
        if self.propagation_delay > 0:
            self.scheduler.post_after(self.propagation_delay, self.deliver, packet)
        else:
            self.deliver(packet)

    def receive(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class ConstantRateLink(LinkBase):
    """A fixed-rate link that serializes packets at ``rate_bps`` bits/second."""

    def __init__(
        self,
        scheduler: EventScheduler,
        rate_bps: float,
        queue: Optional[QueueDiscipline] = None,
        propagation_delay: float = 0.0,
        name: str = "link",
    ) -> None:
        super().__init__(scheduler, queue, propagation_delay, name)
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        self.rate_bps = rate_bps
        self._busy = False
        #: Seal check (see :meth:`arm_seal`): the link is drowned once
        #: ``queued bytes > _seal_budget - now * _seal_drain``.  Unarmed
        #: links never evaluate it (``receive`` is only rebound when armed).
        self._seal_drain = 0.0
        self._seal_budget = 0.0
        self._on_seal: Optional[Callable[[], None]] = None

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
        """
        self._seal_drain = self.rate_bps / 8
        self._seal_budget = end_time * self._seal_drain + 2 * mss_bytes
        self._on_seal = on_seal
        self.receive = self._receive_sealable  # type: ignore[method-assign]

    def seal(self) -> None:
        """Declare the link drowned and notify — once, however often the
        check keeps firing afterwards."""
        on_seal, self._on_seal = self._on_seal, None
        if on_seal is not None:
            on_seal()

    def release(self) -> None:
        super().release()
        self._on_seal = None

    def _receive_sealable(self, packet: Packet) -> None:
        """:meth:`receive` plus the seal check (armed links only)."""
        now = self.scheduler.now
        queue = self.queue
        if not queue.enqueue(packet, now):
            return
        queued = queue.bytes_queued()
        if not self._busy:
            self._start_transmission()
        if queued > self._seal_budget - now * self._seal_drain:
            self.seal()

    def receive(self, packet: Packet) -> None:
        """Packet arrives at the head of the link (from a sender or node)."""
        accepted = self.queue.enqueue(packet, self.scheduler.now)
        if accepted and not self._busy:
            self._start_transmission()

    def _start_transmission(self) -> None:
        scheduler = self.scheduler
        packet = self.queue.dequeue(scheduler.now)
        if packet is None:
            self._busy = False
            return
        # _observe_wait, inlined on the per-packet path (same precedence:
        # an explicit delay_observer overrides the delay_stats fast path).
        if self.delay_observer is not None:
            self.delay_observer(packet, max(0.0, scheduler.now - packet.enqueue_time))
        else:
            stats_map = self.delay_stats
            if stats_map is not None:
                stats = stats_map.get(packet.flow_id)
                if stats is not None:
                    delay = scheduler.now - packet.enqueue_time
                    if delay < 0.0:
                        delay = 0.0
                    stats.queue_delay_sum += delay
                    stats.queue_delay_count += 1
                    if delay > stats.max_queue_delay:
                        stats.max_queue_delay = delay
                    hop_map = self.hop_delay_stats
                    if hop_map is not None:
                        hop = hop_map.get(packet.flow_id)
                        if hop is not None:
                            hop.delay_sum += delay
                            hop.count += 1
                            if delay > hop.max_delay:
                                hop.max_delay = delay
        self._busy = True
        # Serialization delay: size / rate.
        scheduler.post_after(
            packet.size_bytes * 8 / self.rate_bps, self._finish_transmission, packet
        )

    def _finish_transmission(self, packet: Packet) -> None:
        # _emit, inlined: serialization finished, hand the packet across the
        # propagation delay and immediately start serializing the successor
        # (the run-to-completion chain: transmit -> dequeue -> next transmit).
        deliver = self.deliver
        if deliver is None:
            raise RuntimeError(f"{self.name}: deliver callback not connected")
        self.packets_delivered += 1
        self.bytes_delivered += packet.size_bytes
        if self.propagation_delay > 0:
            self.scheduler.post_after(self.propagation_delay, deliver, packet)
        else:
            deliver(packet)
        self._start_transmission()


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
        if len(delivery_times) == 0:
            raise ValueError("delivery_times must not be empty")
        if mss_bytes <= 0:
            raise ValueError("mss_bytes must be positive")
        times = list(delivery_times)
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("delivery_times must be non-decreasing")
        self.delivery_times = times
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
