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
from typing import Callable, Optional

from typing import TYPE_CHECKING

from repro.netsim.events import EventScheduler
from repro.netsim.packet import AckInfo, Packet, PacketPool
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


@dataclass(slots=True)
class _SentInfo:
    sent_time: float
    first_sent_time: float
    retransmitted: bool
    size_bytes: int


class Sender:
    """Sending endpoint for a single flow."""

    def __init__(
        self,
        flow_id: int,
        scheduler: EventScheduler,
        cc: "CongestionControl",
        transmit: Optional[TransmitFn] = None,
        workload: Optional[Workload] = None,
        stats: Optional[FlowStats] = None,
        mss_bytes: int = 1500,
        rng: Optional[random.Random] = None,
        trace_sequence: bool = False,
        pool: Optional[PacketPool] = None,
    ) -> None:
        self.flow_id = flow_id
        self.scheduler = scheduler
        self.cc = cc
        self.transmit = transmit
        self.workload = workload if workload is not None else AlwaysOnWorkload()
        self.stats = stats if stats is not None else FlowStats(flow_id)
        self.mss_bytes = mss_bytes
        self.rng = rng if rng is not None else random.Random(flow_id)
        self.trace_sequence = trace_sequence
        #: Optional per-simulator packet freelist.  When set, data packets
        #: are drawn from it and acknowledgments are released back at the
        #: end of :meth:`on_ack` (the ACK's delivery sink).
        self.pool = pool
        # Skip the per-packet on_packet_sent call for modules that keep the
        # base class's no-op (everything except XCP).
        from repro.protocols.base import CongestionControl

        self._cc_observes_sends = (
            type(cc).on_packet_sent is not CongestionControl.on_packet_sent
        )

        # Transport state.  ``in_flight`` maps seq -> _SentInfo; the frontier
        # is a min-heap over in-flight sequence numbers (with lazy deletion:
        # a selectively-acked seq leaves a stale entry behind), so cumulative
        # ACKs release packets in O(released · log n) instead of scanning the
        # whole flight per ACK.
        self.state = "idle"  # idle -> off/on cycles
        self.next_seq = 0
        self.in_flight: dict[int, _SentInfo] = {}
        self._flight_frontier: list[int] = []
        self.retransmit_queue: deque[int] = deque()
        self.highest_cum_ack = 0
        self.dup_count = 0
        self.in_recovery = False
        self.recovery_point = -1
        self.last_send_time = -math.inf

        # RTT estimation (RFC 6298 style).
        self.min_rtt: Optional[float] = None
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
        #: Authoritative RTO deadline.  Each ACK moves this float instead of
        #: cancelling and re-pushing the heap entry (two O(log n) operations
        #: per acknowledgment); the armed entry fires at its original time,
        #: notices the deadline moved, and re-posts itself (a rare,
        #: uncounted bookkeeping check — RTO is hundreds of ACK intervals).
        self._rto_deadline = 0.0
        self._pacing_event: Optional[list] = None
        self._switch_event: Optional[list] = None

    # ------------------------------------------------------------------ wiring
    def connect(self, transmit: TransmitFn) -> None:
        """Set the callback that pushes data packets into the network."""
        self.transmit = transmit

    def release(self) -> None:
        """Cut the endpoint's wiring once its simulation has run (transmit
        sink, timers, rebound handlers); transport state and stats stay."""
        self.transmit = None
        self._on_until_event = self._rto_event = None
        self._pacing_event = self._switch_event = None
        for name in ("on_ack", "_pacing_fire"):  # kernel closure or sanitizer wrapper
            self.__dict__.pop(name, None)

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
        on, ``_maybe_send`` finds no ``transmit``; in later on-periods no ACK
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
        delay = self.workload.first_on_delay(self.rng)
        self._switch_event = self.scheduler.post_after(delay, self._switch_on)

    def finalize(self, end_time: float) -> None:
        """Close the books at the end of the simulation."""
        if self.state == "on":
            self.stats.record_on_time(end_time - self.on_start_time)
            self.state = "off"

    @property
    def is_on(self) -> bool:
        return self.state == "on"

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
        self.min_rtt = None
        self.srtt = None
        self.rttvar = None
        self.rto = 1.0
        self.last_send_time = -math.inf
        self.cc.reset(now)

        demand = self.workload.next_flow(self.rng)
        if demand.size_bytes is not None:
            self.segments_remaining = max(1, math.ceil(demand.size_bytes / self.mss_bytes))
        else:
            self.segments_remaining = None
            if demand.duration is not None and math.isfinite(demand.duration):
                self._on_until_event = self.scheduler.post_after(
                    demand.duration, self._switch_off
                )
        self._maybe_send()

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
            self._switch_event = self.scheduler.post_after(
                off_duration, self._switch_on
            )

    def _cancel(self, entry: Optional[list]) -> None:
        if entry is not None:
            self.scheduler.cancel_entry(entry)

    # ------------------------------------------------------------------ sending
    def _maybe_send(self) -> None:
        """Send as many packets as the window, pacing and workload allow."""
        if self.state != "on":
            return
        now = self.scheduler.now
        cc = self.cc
        in_flight = self.in_flight
        retransmit_queue = self.retransmit_queue
        # ``transmit`` is re-read per packet: a sealed sender's last segment
        # clears it mid-loop (see :meth:`seal`).
        while self.transmit is not None:
            # Retransmissions are already counted in flight, so sending them
            # does not grow the flight size and must not be window-blocked
            # (otherwise a lost packet could never be repaired).
            if not retransmit_queue:
                # A flow with a byte demand stops once its segments run out
                # (None means an unlimited / duration-bounded demand).
                remaining = self.segments_remaining
                if remaining is not None and remaining <= 0:
                    return
                # Admission window: never below one packet to avoid deadlock.
                # (cc.cwnd read directly: the ``window`` property is defined
                # as exactly cwnd, and the descriptor call is measurable in
                # this loop.)
                window = cc.cwnd
                if len(in_flight) >= (window if window > 1.0 else 1.0):
                    return
            intersend = cc.intersend_time
            if intersend > 0:
                next_allowed = self.last_send_time + intersend
                if now < next_allowed - 1e-12:
                    self._schedule_pacing(next_allowed)
                    return
            self._send_one(now)

    def _schedule_pacing(self, when: float) -> None:
        entry = self._pacing_event
        if entry is not None and entry[2] is not None:  # still armed
            if entry[0] <= when + 1e-12:
                return
            self.scheduler.cancel_entry(entry)
        self._pacing_event = self.scheduler.post(when, self._pacing_fire)

    def _pacing_fire(self) -> None:
        self._pacing_event = None
        self._maybe_send()

    def _send_one(self, now: float) -> None:
        if self.retransmit_queue:
            seq = self.retransmit_queue.popleft()
            retransmit = True
        else:
            seq = self.next_seq
            self.next_seq += 1
            if self.segments_remaining is not None:
                self.segments_remaining -= 1
            retransmit = False

        pool = self.pool
        if pool is not None:
            packet = pool.data(self.flow_id, seq, self.mss_bytes, now)
        else:
            packet = Packet(self.flow_id, seq, size_bytes=self.mss_bytes, sent_time=now)
        packet.retransmit = retransmit
        packet.ecn_capable = self.cc.uses_ecn
        info = self.in_flight.get(seq)
        if info is not None and retransmit:
            packet.first_sent_time = info.first_sent_time
            info.sent_time = now
            info.retransmitted = True
        else:
            self.in_flight[seq] = _SentInfo(now, now, retransmit, self.mss_bytes)
            heappush(self._flight_frontier, seq)

        stats = self.stats  # record_send, inlined on the per-packet path
        stats.packets_sent += 1
        if retransmit:
            stats.retransmissions += 1
        if self._cc_observes_sends:
            self.cc.on_packet_sent(packet, now)
        self.last_send_time = now
        self.transmit(packet)
        # _arm_rto(), armed check inlined: on all but the first send of a
        # window the timer is already running.
        entry = self._rto_event
        if entry is None or entry[2] is None:
            self._arm_rto()

    # ------------------------------------------------------------------ receiving
    def on_ack(self, ack: Packet) -> None:
        """Process an acknowledgment arriving from the network."""
        if not ack.is_ack:
            raise ValueError("sender got a data packet")
        if self.state != "on":
            ack.release()  # stale ACK from an abandoned flow
            return
        # An ACK still in flight from a *previous* on-period (it survived the
        # off gap) echoes a send time before this period began.  Processing it
        # would classify it as a duplicate (its cumulative ack cannot advance
        # past a restarted flow's) and three of them would fire a spurious
        # fast retransmit / cc.on_loss on a flow that has lost nothing.
        if ack.echo_sent_time < self.on_start_time:
            ack.release()  # stale ACK from a previous on-period
            return
        now = self.scheduler.now

        ack_seq = ack.ack_seq
        in_flight = self.in_flight
        frontier = self._flight_frontier
        newly_acked_bytes = 0
        # Cumulative acknowledgment releases everything below ack_seq: walk
        # the ordered frontier instead of scanning the whole flight.  A
        # frontier entry whose seq is no longer in flight (selectively acked
        # earlier, or re-pushed on retransmission) is simply discarded.
        while frontier and frontier[0] < ack_seq:
            info = in_flight.pop(heappop(frontier), None)
            if info is not None:
                newly_acked_bytes += info.size_bytes
        # The specific segment that generated this ACK may be above the
        # cumulative point (out-of-order arrival): release it selectively.
        info = in_flight.pop(ack.sacked_seq, None)
        if info is not None:
            newly_acked_bytes += info.size_bytes
        # Anything cumulatively acknowledged no longer needs retransmission.
        if self.retransmit_queue:
            self.retransmit_queue = deque(
                s for s in self.retransmit_queue if s >= ack_seq
            )

        # RTT estimation (Karn's rule: ignore retransmitted segments).
        rtt: Optional[float] = None
        if not ack.retransmit:
            rtt = now - ack.echo_sent_time
            if rtt > 0:
                # _update_rtt, inlined on the per-ACK path (RFC 6298).
                if self.min_rtt is None or rtt < self.min_rtt:
                    self.min_rtt = rtt
                srtt = self.srtt
                if srtt is None:
                    self.srtt = rtt
                    self.rttvar = rtt / 2
                    rto = rtt + 4 * (rtt / 2)
                else:
                    self.rttvar = rttvar = 0.75 * self.rttvar + 0.25 * abs(srtt - rtt)
                    self.srtt = srtt = 0.875 * srtt + 0.125 * rtt
                    rto = srtt + 4 * rttvar
                self.rto = MAX_RTO if rto > MAX_RTO else (MIN_RTO if rto < MIN_RTO else rto)
                stats = self.stats  # record_rtt, inlined on the per-ACK path
                stats.rtt_sum += rtt
                stats.rtt_count += 1
                if stats.min_rtt is None or rtt < stats.min_rtt:
                    stats.min_rtt = rtt

        # A duplicate ACK is one whose cumulative acknowledgment does not
        # advance — even if it selectively acknowledges an out-of-order
        # segment (that is exactly the situation that signals a hole).
        is_duplicate = ack_seq <= self.highest_cum_ack
        self._update_recovery_state(ack, now, is_duplicate)

        # AckInfo built through tuple.__new__: the namedtuple constructor
        # costs a Python frame per acknowledgment; all twelve fields are
        # supplied positionally either way.
        self.cc.on_ack(
            tuple.__new__(
                AckInfo,
                (
                    now,
                    ack.sacked_seq,
                    ack_seq,
                    newly_acked_bytes,
                    rtt,
                    self.min_rtt,
                    ack.echo_sent_time,
                    ack.receiver_time,
                    ack.ecn_echo,
                    len(in_flight),
                    ack.xcp_feedback,
                    is_duplicate,
                ),
            )
        )

        if self.trace_sequence:
            self.stats.sequence_trace.append((now, ack_seq))

        # This handler is the ACK's delivery sink: every field has been
        # digested into AckInfo/our own state, so the instance is dead.
        # (Packet.release, inlined on the per-ACK path.)
        pool = ack._pool
        if pool is not None:
            pool.release(ack)

        # _flow_complete(), inlined on the per-ACK path (None == 0 is False,
        # so always-on flows never trip it).
        if self.segments_remaining == 0 and not in_flight and not self.retransmit_queue:
            self._switch_off()
            return

        if in_flight:
            # _arm_rto(restart=True), suppression fast path inlined: move
            # the deadline and keep the armed entry when it fires no later.
            self._rto_deadline = deadline = now + self.rto
            entry = self._rto_event
            if entry is None or entry[2] is None or entry[0] > deadline:
                self._arm_rto(restart=True)
        else:
            self._cancel(self._rto_event)
            self._rto_event = None
        self._maybe_send()

    def _update_recovery_state(self, ack: Packet, now: float, is_duplicate: bool) -> None:
        if not is_duplicate:
            self.highest_cum_ack = ack.ack_seq
            self.dup_count = 0
            if self.in_recovery:
                if ack.ack_seq > self.recovery_point:
                    self.in_recovery = False
                elif (
                    ack.ack_seq in self.in_flight
                    and ack.ack_seq not in self.retransmit_queue
                ):
                    # NewReno-style partial ACK: the cumulative point advanced
                    # but is still below the recovery point, so the segment it
                    # now stops at is the next hole — retransmit it directly
                    # without waiting for three more duplicates or an RTO.
                    self.retransmit_queue.appendleft(ack.ack_seq)
        elif is_duplicate:
            self.dup_count += 1
            if self.dup_count >= DUPACK_THRESHOLD and not self.in_recovery:
                self._fast_retransmit(ack.ack_seq, now)

    def _fast_retransmit(self, missing_seq: int, now: float) -> None:
        self.in_recovery = True
        self.recovery_point = self.next_seq - 1
        self.dup_count = 0
        if missing_seq in self.in_flight and missing_seq not in self.retransmit_queue:
            self.retransmit_queue.appendleft(missing_seq)
        self.stats.record_loss()
        self.cc.on_loss(now)

    # ------------------------------------------------------------------ RTT / RTO
    # (RTT estimation — RFC 6298 — and flow-completion detection both live
    # inlined in on_ack: they run once per acknowledgment.)

    def _arm_rto(self, restart: bool = False) -> None:
        entry = self._rto_event
        if restart:
            # Suppression rearm: move the deadline forward and keep the armed
            # entry as long as it fires no later than the deadline (the fire
            # re-checks and re-posts).  If the deadline moved *earlier* than
            # the armed entry — the retransmission timeout shrank, e.g. while
            # the RTT estimator converges from the initial 1 s RTO — fall
            # back to cancel-and-repush so the timeout cannot fire late.
            deadline = self.scheduler.now + self.rto
            self._rto_deadline = deadline
            if entry is not None and entry[2] is not None:  # still armed
                if entry[0] <= deadline:
                    return
                self.scheduler.cancel_entry(entry)
        elif entry is not None and entry[2] is not None:  # still armed
            return
        else:
            self._rto_deadline = self.scheduler.now + self.rto
        self._rto_event = self.scheduler.post_after(self.rto, self._rto_fire)

    def _rto_fire(self) -> None:
        scheduler = self.scheduler
        now = scheduler.now
        if now < self._rto_deadline:
            # The deadline was pushed out by acknowledgments while this entry
            # sat in the heap: re-post at the authoritative deadline (which
            # is exactly where the cancel-and-repush scheme would have fired).
            # Pure timer bookkeeping, not a simulation event.
            scheduler.uncount_event()
            self._rto_event = scheduler.post(self._rto_deadline, self._rto_fire)
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
        self._maybe_send()
