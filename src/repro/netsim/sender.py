"""Sender endpoint: the reliable-transport harness hosting a congestion-control module.

The sender owns everything the paper's ns-2 TCP agents own *except* the
congestion-control law itself: sequencing, round-trip-time estimation, loss
detection via duplicate ACKs, retransmission timeouts, pacing, and the on/off
workload process that models users arriving and leaving (§3.2).  The hosted
:class:`repro.protocols.base.CongestionControl` object only dictates the
congestion window and (for RemyCC) a minimum interval between transmissions.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.events import EventScheduler
from repro.netsim.kernel import unwired
from repro.netsim.packet import DATA_PACKET_BYTES, AckInfo, Packet
from repro.netsim.stats import FlowStats

if TYPE_CHECKING:  # imported only for type annotations; avoids a package cycle
    from repro.protocols.base import CongestionControl

TransmitFn = Callable[[Packet], None]

#: Number of duplicate ACKs that triggers fast retransmit.
DUPACK_THRESHOLD = 3

#: Lower bound on the retransmission timeout (seconds).  The classic 1 s
#: minimum would leave simulated links idle for very long stretches relative
#: to the short experiment durations used here, so we follow modern stacks
#: (Linux uses 200 ms).
MIN_RTO = 0.2

#: Upper bound on the retransmission timeout (seconds).
MAX_RTO = 60.0


@dataclass
class FlowDemand:
    """How much a single "on" period wants to transfer.

    Exactly one of ``size_bytes`` (transfer that many bytes, then stop) or
    ``duration`` (stay on for this many seconds, as fast as the protocol
    allows) should be set.  ``duration=math.inf`` models an always-on source.
    """

    size_bytes: Optional[int] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.size_bytes is None) == (self.duration is None):
            raise ValueError("exactly one of size_bytes or duration must be set")
        if self.size_bytes is not None and self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.duration is not None and not self.duration > 0:  # NaN-failing form
            raise ValueError(f"duration must be positive, got {self.duration!r}")


class Workload:
    """Interface for on/off switching processes (see :mod:`repro.traffic.onoff`)."""

    def first_on_delay(self, rng: random.Random) -> float:
        """Seconds from simulation start until the source first switches on."""
        return 0.0

    def next_off_duration(self, rng: random.Random) -> float:
        """Seconds the source stays off between flows."""
        raise NotImplementedError

    def next_flow(self, rng: random.Random) -> FlowDemand:
        """Demand for the next "on" period."""
        raise NotImplementedError


class AlwaysOnWorkload(Workload):
    """A source that switches on at ``start_delay`` and never stops."""

    def __init__(self, start_delay: float = 0.0) -> None:
        if not start_delay >= 0:  # NaN-failing form
            raise ValueError(f"start_delay cannot be negative, got {start_delay!r}")
        self.start_delay = start_delay

    def first_on_delay(self, rng: random.Random) -> float:
        return self.start_delay

    def next_off_duration(self, rng: random.Random) -> float:
        return math.inf

    def next_flow(self, rng: random.Random) -> FlowDemand:
        return FlowDemand(duration=math.inf)


class Sender:
    """Sending endpoint for a single flow."""

    def __init__(
        self,
        flow_id: int,
        scheduler: EventScheduler,
        cc: "CongestionControl",
        workload: Optional[Workload] = None,
        stats: Optional[FlowStats] = None,
        rng: Optional[random.Random] = None,
        trace_sequence: bool = False,
    ) -> None:
        self.flow_id = flow_id
        self.scheduler = scheduler
        self.cc = cc
        self.workload = workload if workload is not None else AlwaysOnWorkload()
        self.stats = stats if stats is not None else FlowStats(flow_id)
        self.rng = rng if rng is not None else random.Random(flow_id)
        self.trace_sequence = trace_sequence
        # Skip the per-packet on_packet_sent call for modules that keep the
        # base class's no-op (everything except XCP).
        from repro.protocols.base import CongestionControl

        self._cc_observes_sends = (
            type(cc).on_packet_sent is not CongestionControl.on_packet_sent
        )
        #: Where data packets go (see :meth:`connect` and :meth:`seal`).
        self.transmit: Optional[TransmitFn] = None
        #: The sender's one per-packet closure (see :meth:`connect`); until
        #: then, and after :meth:`release`, a sink that drops what reaches it.
        self._send: Callable[[Optional[Packet]], None] = unwired
        #: A wrapper installed around ``_send`` as the ACK sink (:attr:`on_ack`).
        self._ack_sink: Optional[TransmitFn] = None

        # Transport state.  ``in_flight`` maps seq -> bytes; the frontier
        # is a min-heap over in-flight sequence numbers (with lazy deletion:
        # a selectively-acked seq leaves a stale entry behind), so cumulative
        # ACKs release packets in O(released · log n) instead of scanning the
        # whole flight per ACK.
        self.state = "idle"  # idle -> off/on cycles
        self.next_seq = 0
        self.in_flight: dict[int, int] = {}
        self._flight_frontier: list[int] = []
        self.retransmit_queue: deque[int] = deque()
        self.highest_cum_ack = 0
        self.dup_count = 0
        self.in_recovery = False
        self.recovery_point = -1
        self.last_send_time = -math.inf

        # RTT estimation (RFC 6298 style).
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = 1.0

        # Workload bookkeeping.  Timers are the scheduler entries
        # :meth:`EventScheduler.post_after` returns — the entry is its own
        # cancellation token, so rearming allocates no handle.
        self.segments_remaining: Optional[int] = None
        self.on_start_time = 0.0
        self._on_until_event: Optional[list] = None
        self._rto_event: Optional[list] = None
        #: Authoritative RTO deadline.  Each ACK moves this float (and arms
        #: the timer if none is armed).  The entry is posted at most
        #: ``MIN_RTO`` ahead, no later than any deadline an ACK can set
        #: (``rto >= MIN_RTO``), so it never has to be cancelled: when it
        #: fires before the deadline it re-posts itself, again at most
        #: ``MIN_RTO`` on (an uncounted bookkeeping check), and the timeout
        #: fires exactly at the deadline.
        self._rto_deadline = 0.0
        #: The pacing timer's entry (already run once ``entry[2] is None``).
        self._pacing_event: Optional[list] = None

    # ------------------------------------------------------------------ wiring
    @property
    def on_ack(self) -> TransmitFn:
        """Where the network delivers this flow's acknowledgments: the
        sender's closure, or a wrapper set around it (the invariant
        sanitizer counts through one; set it before the flow is attached)."""
        return self._ack_sink or self._send

    @on_ack.setter
    def on_ack(self, sink: TransmitFn) -> None:
        self._ack_sink = sink

    def connect(self, transmit: TransmitFn) -> None:
        """Send data packets into ``transmit`` and build the sender's closure.

        Called with an acknowledgment, the closure processes it — releases
        the acknowledged flight, estimates the RTT, updates the recovery
        state, calls ``cc.on_ack``, pushes the RTO — and falls into the send
        loop, all in one frame.  Called with none, by the pacing,
        retransmission and switch-on timers, it runs the send loop alone.
        The flow's stable state (in-flight map, flight frontier, stats block,
        congestion module, sink) lives in closure cells; mutable scalars
        (sequence counters, RTT estimator, recovery flags, timers) stay on
        the instance, where the cold paths read them.  The acknowledgment
        dies here: once digested, nothing holds it, so the send loop rewrites
        it into the first data packet it sends.

        ``transmit`` is the entry of the flow's first hop (its loss gate or
        its link's ``receive``); the hop owns its queue, tail drop and seal
        check.  The loop re-reads :attr:`transmit` after every packet, since
        a packet that drowns the bottleneck swaps it (:meth:`seal`), and
        stops once it is gone.
        """
        self.transmit = transmit
        sender = self
        scheduler = self.scheduler
        heap = scheduler._heap
        cc = self.cc
        cc_on_ack = cc.on_ack
        stats = self.stats
        in_flight = self.in_flight
        frontier = self._flight_frontier
        flow_id = self.flow_id
        trace_sequence = self.trace_sequence
        cc_observes_sends = self._cc_observes_sends
        uses_ecn = cc.uses_ecn  # class-level constant on every protocol
        tuple_new = tuple.__new__
        packet_new = Packet.__new__

        def ack_and_send(ack: Optional[Packet] = None) -> None:
            if ack is None:
                # A timer: no acknowledgment half, straight to the send loop.
                if sender.state != "on":
                    return
                now = scheduler.now
                rq = sender.retransmit_queue
            else:
                if not ack.is_ack:
                    raise ValueError("sender got a data packet")
                if sender.state != "on":
                    return  # stale ACK from an abandoned flow
                # An ACK still in flight from a *previous* on-period echoes a
                # send time before this one began; processed, three of them
                # would fire a spurious fast retransmit on a lossless flow.
                if ack.echo_sent_time < sender.on_start_time:
                    return
                now = scheduler.now

                # Cumulative acknowledgment: walk the ordered frontier (an
                # entry no longer in flight is simply discarded), then
                # release the segment that triggered this ACK selectively.
                ack_seq = ack.ack_seq
                newly_acked_bytes = 0
                while frontier and frontier[0] < ack_seq:
                    newly_acked_bytes += in_flight.pop(heappop(frontier), 0)
                newly_acked_bytes += in_flight.pop(ack.sacked_seq, 0)
                # ``rq`` aliases ``sender.retransmit_queue`` for the rest of
                # the call: every mutation below is in place (or rebinds
                # both), and the cold helpers only mutate in place.
                rq = sender.retransmit_queue
                if rq:
                    sender.retransmit_queue = rq = deque(s for s in rq if s >= ack_seq)

                # RTT estimation (RFC 6298; Karn's rule: ignore retransmitted
                # segments).
                rtt: Optional[float] = None
                if not ack.retransmit:
                    rtt = now - ack.echo_sent_time
                    if rtt > 0:
                        srtt = sender.srtt
                        if srtt is None:
                            sender.srtt = rtt
                            sender.rttvar = rtt / 2
                            rto = rtt + 4 * (rtt / 2)
                        else:
                            sender.rttvar = rttvar = (
                                0.75 * sender.rttvar + 0.25 * abs(srtt - rtt)
                            )
                            sender.srtt = srtt = 0.875 * srtt + 0.125 * rtt
                            rto = srtt + 4 * rttvar
                        sender.rto = (
                            MAX_RTO if rto > MAX_RTO else (MIN_RTO if rto < MIN_RTO else rto)
                        )
                        stats.rtt_sum += rtt
                        stats.rtt_count += 1
                        if stats.min_rtt is None or rtt < stats.min_rtt:
                            stats.min_rtt = rtt

                # A duplicate ACK does not advance the cumulative point, even
                # if it selectively acknowledges an out-of-order segment.
                if ack_seq > sender.highest_cum_ack:
                    sender.highest_cum_ack = ack_seq
                    sender.dup_count = 0
                    if sender.in_recovery:
                        if ack_seq > sender.recovery_point:
                            sender.in_recovery = False
                        elif ack_seq in in_flight and ack_seq not in rq:
                            # NewReno partial ACK: the segment the cumulative
                            # point now stops at is the next hole.
                            rq.appendleft(ack_seq)
                else:
                    sender.dup_count += 1
                    if sender.dup_count >= DUPACK_THRESHOLD and not sender.in_recovery:
                        sender._fast_retransmit(ack_seq, now)

                # AckInfo built through tuple.__new__: the namedtuple
                # constructor costs a frame per acknowledgment.
                cc_on_ack(
                    tuple_new(
                        AckInfo,
                        (
                            now,
                            newly_acked_bytes,
                            rtt,
                            ack.echo_sent_time,
                            ack.ecn_echo,
                            len(in_flight),
                            ack.xcp_feedback,
                        ),
                    )
                )

                if trace_sequence:
                    stats.sequence_trace.append((now, ack_seq))

                # Flow complete (None == 0 is False: unlimited demands never are).
                if sender.segments_remaining == 0 and not in_flight and not rq:
                    sender._switch_off()
                    return

                if in_flight:
                    sender._rto_deadline = now + sender.rto
                    entry = sender._rto_event
                    if entry is None or entry[2] is None:
                        sender._arm_rto()
                else:
                    entry = sender._rto_event
                    if entry is not None:
                        scheduler.cancel_entry(entry)
                    sender._rto_event = None

            # The send loop: as many packets as the window, pacing and
            # workload allow, for as long as the sender has a sink.
            sink = sender.transmit
            retransmit_queue = rq
            while sink is not None:
                # Retransmissions are already counted in flight, so they are
                # never window-blocked (a lost packet must stay repairable).
                if not retransmit_queue:
                    remaining = sender.segments_remaining
                    if remaining is not None and remaining <= 0:
                        return
                    # Admission window, never below one packet.
                    window = cc.cwnd
                    if len(in_flight) >= (window if window > 1.0 else 1.0):
                        return
                intersend = cc.intersend_time
                if intersend > 0:
                    next_allowed = sender.last_send_time + intersend
                    if now < next_allowed - 1e-12:
                        # Arm the pacing timer (``next_allowed`` is in the
                        # future, so no clamp); a timer set for no later
                        # stays armed.
                        entry = sender._pacing_event
                        if entry is not None and entry[2] is not None:
                            if entry[0] <= next_allowed + 1e-12:
                                return
                            scheduler.cancel_entry(entry)
                        sender._pacing_event = entry = [
                            next_allowed, scheduler._sequence, sender._send, ()
                        ]
                        scheduler._sequence += 1
                        heappush(heap, entry)
                        return
                if retransmit_queue:
                    seq = retransmit_queue.popleft()
                    retransmit = True
                else:
                    seq = sender.next_seq
                    sender.next_seq = seq + 1
                    if sender.segments_remaining is not None:
                        sender.segments_remaining -= 1
                    retransmit = False
                # Packet by slot stores, every slot as ``Packet.__init__``
                # sets it: no constructor frame per transmission.  The
                # digested acknowledgment, which nothing else holds, becomes
                # the first one (same flow, every other slot rewritten).
                if ack is None:
                    packet = packet_new(Packet)
                    packet.flow_id = flow_id
                else:
                    packet, ack = ack, None
                packet.seq = seq
                packet.size_bytes = DATA_PACKET_BYTES
                packet.sent_time = now
                packet.is_ack = False
                packet.ack_seq = -1
                packet.sacked_seq = -1
                packet.echo_sent_time = 0.0
                packet.ecn_capable = uses_ecn
                packet.ecn_marked = False
                packet.ecn_echo = False
                packet.retransmit = retransmit
                packet.enqueue_time = 0.0
                packet.xcp_cwnd = 0.0
                packet.xcp_rtt = 0.0
                packet.xcp_demand = 0.0
                packet.xcp_feedback = 0.0
                # A retransmission still in flight keeps its entry; one
                # selectively acknowledged meanwhile re-enters the flight.
                if not retransmit or seq not in in_flight:
                    in_flight[seq] = DATA_PACKET_BYTES
                    heappush(frontier, seq)
                stats.packets_sent += 1
                if retransmit:
                    stats.retransmissions += 1
                if cc_observes_sends:
                    cc.on_packet_sent(packet, now)
                sender.last_send_time = now
                sink(packet)
                sink = sender.transmit  # sealing swaps it (see seal)
                # The RTO timer, armed on the first send of a window.
                entry = sender._rto_event
                if entry is None or entry[2] is None:
                    sender._arm_rto()

        self._send = ack_and_send

    def release(self) -> None:
        """Cut the endpoint's wiring once its simulation has run (sink,
        closure, timers); transport state and stats stay."""
        self.transmit = self._ack_sink = None
        self._send = unwired
        self._on_until_event = self._rto_event = self._pacing_event = None

    def seal(self) -> None:
        """The bottleneck just sealed: stop transmitting what cannot arrive.

        Nothing sent from now on can be delivered or acknowledged within the
        run (see :meth:`~repro.netsim.link.ConstantRateLink.arm_seal`), so
        the only trace it could leave on anything but the send-side counters
        is through this sender's own clockwork — and that needs exactly one
        packet.  The next *new* segment still goes out: being unacknowledgeable
        it keeps the flight non-empty for the rest of the on-period, so the
        retransmission timer keeps being armed, pushed by ACKs and fired (a
        RemyCC resets its memory on timeout) at exactly the instants the
        never-ending flight of an unsealed run would produce, and a byte
        demand can no more complete than it could there.  After it the sender
        goes quiet for good — ACK processing, RTO and on/off switching carry
        on, the send loop finds no ``transmit``; in later on-periods no ACK
        is ever accepted, so there is nothing left to keep exact.
        Retransmissions before that segment pass through untouched (they
        leave the flight as it is).
        """
        transmit = self.transmit
        if transmit is None:
            return
        forward: TransmitFn = transmit

        def last_segment(packet: Packet) -> None:
            if not packet.retransmit:
                self.transmit = None
            forward(packet)

        self.transmit = last_segment

    # ------------------------------------------------------------------ control
    def start(self) -> None:
        """Begin the on/off process (call once, at simulation start)."""
        if self.state != "idle":
            raise RuntimeError("sender already started")
        self.state = "off"
        self.scheduler.post_after(self.workload.first_on_delay(self.rng), self._switch_on)

    def finalize(self, end_time: float) -> None:
        """Close the books at the end of the simulation."""
        if self.state == "on":
            self.stats.record_on_time(end_time - self.on_start_time)
            self.state = "off"

    # ------------------------------------------------------------------ on/off
    def _switch_on(self) -> None:
        now = self.scheduler.now
        self.state = "on"
        self.on_start_time = now
        self.in_flight.clear()
        self._flight_frontier.clear()
        self.retransmit_queue.clear()
        self.dup_count = 0
        self.in_recovery = False
        self.srtt = None
        self.rttvar = None
        self.rto = 1.0
        self.last_send_time = -math.inf
        self.cc.reset(now)

        demand = self.workload.next_flow(self.rng)
        if demand.size_bytes is not None:
            self.segments_remaining = max(1, math.ceil(demand.size_bytes / DATA_PACKET_BYTES))
        else:
            self.segments_remaining = None
            if demand.duration is not None and math.isfinite(demand.duration):
                self._on_until_event = self.scheduler.post_after(
                    demand.duration, self._switch_off
                )
        self._send()

    def _switch_off(self) -> None:
        if self.state != "on":
            return
        now = self.scheduler.now
        self.stats.record_on_time(now - self.on_start_time)
        self.state = "off"
        self.in_flight.clear()
        self._flight_frontier.clear()
        self.retransmit_queue.clear()
        self.segments_remaining = None
        self._cancel(self._rto_event)
        self._cancel(self._pacing_event)
        self._cancel(self._on_until_event)
        self._rto_event = None
        self._pacing_event = None
        self._on_until_event = None

        off_duration = self.workload.next_off_duration(self.rng)
        if math.isfinite(off_duration):
            self.scheduler.post_after(off_duration, self._switch_on)

    def _cancel(self, entry: Optional[list]) -> None:
        if entry is not None:
            self.scheduler.cancel_entry(entry)

    def _fast_retransmit(self, missing_seq: int, now: float) -> None:
        self.in_recovery = True
        self.recovery_point = self.next_seq - 1
        self.dup_count = 0
        if missing_seq in self.in_flight and missing_seq not in self.retransmit_queue:
            self.retransmit_queue.appendleft(missing_seq)
        self.stats.record_loss()
        self.cc.on_loss(now)

    # ------------------------------------------------------------------ RTO
    def _arm_rto(self) -> None:
        """Arm the retransmission timer, unless it is armed: the deadline
        ``rto`` ahead, the entry at most ``MIN_RTO`` ahead (see
        ``_rto_deadline``)."""
        entry = self._rto_event
        if entry is not None and entry[2] is not None:  # still armed
            return
        self._rto_deadline = self.scheduler.now + self.rto
        self._rto_event = self.scheduler.post_after(MIN_RTO, self._rto_fire)

    def _rto_fire(self) -> None:
        scheduler = self.scheduler
        now = scheduler.now
        deadline = self._rto_deadline
        if now < deadline:
            # Not yet: re-post at the deadline, or ``MIN_RTO`` on if that is
            # sooner (an ACK may still pull the deadline in that far).  Pure
            # timer bookkeeping, not a simulation event.
            scheduler.uncount_event()
            self._rto_event = scheduler.post(min(deadline, now + MIN_RTO), self._rto_fire)
            return
        self._rto_event = None
        if self.state != "on" or not self.in_flight:
            return
        # The frontier's first live entry is the oldest in-flight segment
        # (every in-flight seq is on the frontier; stale tops are discarded).
        frontier = self._flight_frontier
        while frontier[0] not in self.in_flight:
            heappop(frontier)
        oldest = frontier[0]
        if oldest not in self.retransmit_queue:
            self.retransmit_queue.appendleft(oldest)
        self.stats.record_timeout()
        self.dup_count = 0
        self.in_recovery = False
        self.cc.on_timeout(now)
        self.rto = min(MAX_RTO, self.rto * 2)
        self._arm_rto()
        self._send()
