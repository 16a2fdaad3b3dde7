"""The fused wiring: what ``Simulation(kernel="auto")`` does after the build.

A simulation is always built by the generic wiring (identical constructor
order, identical rng draws) on the one
:class:`~repro.netsim.events.EventScheduler`.  ``kernel="generic"`` runs it
as built — the parity reference.  ``kernel="auto"`` (the default) then calls
:func:`fuse`, which changes nothing semantic: swapping it out must reproduce
the committed golden fingerprints bit-identically, and
``tests/test_scenario_matrix.py`` asserts exactly that for every registered
cell.  Two ideas, both order-preserving:

**Fused per-hop and per-flow chains.**  :func:`fuse` rebinds the per-packet
callbacks to closures that inline their successor scheduling: every
constant-rate hop's ``receive`` / dequeue-and-serialize / finish-and-hand-off
steps (DropTail bookkeeping inlined, AQM disciplines keep their
``enqueue``/``dequeue`` calls), whose finish step hands the packet to the
next hop's fused ``receive``, across the hop's propagation delay, or across
the flow's one-way delay to the receiver; every flow's receiver (in-place
ACK conversion, ACK emission inlined) and sender (``on_ack`` → window check
→ send loop in one frame).  Trace-driven hops, lossy-hop gates and
sanitizer-instrumented flows keep their generic callbacks and reach their
fused neighbours through the rebound instance attributes and the network's
rewritten next-hop tables.  Every float is computed by the same expression
in the same order as the generic wiring, and every event still executes (and
is counted) at its own timestamp, so fingerprints — which include
``events_processed`` — are unchanged.

**Constant-delay lanes, where there are exactly two.**  On a constant-rate
dumbbell whose flows share one RTT, :func:`fuse` routes every serialization
and every one-way hand-off onto the scheduler's two lanes (see
:mod:`repro.netsim.events`); on every other shape the same closures post
onto the heap with an inlined ``heappush``.  The choice is read off the
spec; it is not a knob.

The fused closures are stored on the objects they capture — cycles by design,
cut by ``release()`` when ``Simulation.run`` ends, which is why no closure may
name itself.  The collector pause is the caller's (``gc_paused``).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Optional, cast

from repro.netsim.events import EventScheduler
from repro.netsim.link import ConstantRateLink
from repro.netsim.packet import ACK_PACKET_BYTES, AckInfo, Packet, PacketPool
from repro.netsim.queue import DropTailQueue, QueueDiscipline
from repro.netsim.receiver import Receiver
from repro.netsim.sender import (
    DUPACK_THRESHOLD,
    MAX_RTO,
    MIN_RTO,
    Sender,
    _SentInfo,
)

if TYPE_CHECKING:  # avoid a cycle: the simulator calls fuse, fuse reads sims
    from repro.netsim.simulator import Simulation

#: One of the scheduler's constant-delay lanes, or ``None``: post on the heap.
_Lane = Optional["deque[list[Any]]"]

#: One hand-off of the fused chain, ``(delay, lane, sink)``: append to
#: ``lane`` ``delay`` ahead when there is one, else heap-push ``delay``
#: ahead, else (``delay == 0.0``) call ``sink`` right now.
_Route = tuple[float, _Lane, Callable[[Packet], None]]

#: Hand-off for a packet of a flow that does not cross the hop (should not
#: happen): the drop sink.
_NO_ROUTE: _Route = (0.0, None, Packet.release)


def fuse(sim: "Simulation") -> None:
    """Fuse every constant-rate hop and every flow of the built network.

    This pass only *rebinds* the per-packet callbacks — hop serialization
    and hand-off, data delivery, ACK return, the sender's ACK handler — to
    closures that inline the successor scheduling.  Each closure mirrors its
    generic counterpart line for line (same expressions, same order), which
    the golden matrix and the kernel-parity sweep pin.

    Lanes where there are exactly two constant delays: a constant-rate
    dumbbell (:meth:`PathSpec.dumbbell_hop
    <repro.netsim.path.PathSpec.dumbbell_hop>`, either spelling) whose flows
    share one RTT serializes every data packet in one fixed time and
    propagates everything one fixed one-way delay.  Any other topology
    (per-flow RTTs, several hops, a hop delay, a trace-driven link) has more
    distinct delays than the lane merge is worth and stays on the heap.
    """
    network = sim.network
    scheduler = sim.scheduler
    spec = network.spec
    ser_lane: _Lane = None
    flow_lane: _Lane = None
    lane_bytes = -1  # no packet size rides a lane on the heap
    if (
        spec.dumbbell_hop() is not None
        and len({spec.rtt_for_flow(i) for i in range(spec.n_flows)}) == 1
    ):
        ser_lane, flow_lane = scheduler._lanes
        lane_bytes = spec.mss_bytes
    # The hop chains per direction; the network's own next-hop tables,
    # which follow the fused routes so that generic hops — and a late
    # ``link.connect`` spy calling the original callback — reach the
    # fused closures too; and a hop's entry point, read after the hops
    # are fused: a loss-free hop's is its rebound ``receive``, a lossy
    # gate keeps its Bernoulli draw and reads ``receive`` at call time.
    chains, tables, entry = network.links, network._next, network._entry

    # Per hop: ``nexts[direction][index][flow_id]`` is where a packet of
    # the flow goes when its serialization at the hop finishes (filled
    # per flow below — the closures index it at dispatch time, never
    # during fuse).  Trace-driven hops stay generic.
    nexts = tuple(
        [[_NO_ROUTE] * spec.n_flows for _ in links] for links in chains
    )
    for links, hop_tables in zip(chains, nexts):
        for link, table in zip(links, hop_tables):
            if isinstance(link, ConstantRateLink):
                _fuse_hop(scheduler, link, table, ser_lane, lane_bytes)

    # Per flow: the sender's ACK fast path, the receiver's delivery/ACK
    # chain, and the flow's hand-off at every hop it crosses.  An
    # instrumented flow (the invariant sanitizer shadows ``on_ack`` /
    # ``on_packet`` with counting wrappers) keeps its generic callbacks
    # and is bit-identical either way.
    for flow_id, endpoints in network.flows.items():
        sender = endpoints.sender
        receiver = endpoints.receiver
        one_way = endpoints.rtt / 2
        forward, reverse = spec.forward_hops_for(flow_id), spec.reverse_hops_for(flow_id)
        sender.transmit = transmit = entry(0, forward[0])
        if "on_ack" not in sender.__dict__:
            # The send-side enqueue can only be inlined for loss-free
            # senders feeding an un-overridden DropTail directly; lossy
            # gates, AQM disciplines and trace-driven hops keep the
            # ``transmit`` call.
            first = chains[0][forward[0]]
            send_inline = None
            if (
                isinstance(first, ConstantRateLink)
                and transmit is first.receive
                and _plain_fifo(first.queue) is not None
            ):
                send_inline = (first, cast(DropTailQueue, first.queue))
            fused = _fused_sender_on_ack(scheduler, sender, send_inline)
            sender.on_ack = fused  # type: ignore[method-assign]
            # Paced sends re-enter the same closure (called with no ACK).
            sender._pacing_fire = fused  # type: ignore[method-assign]
        to_sender: _Route = (one_way, flow_lane, sender.on_ack)
        ack_route = (0.0, None, entry(1, reverse[0])) if reverse else to_sender
        receiver.send_ack = _generic_handoff(scheduler, ack_route)
        if "on_packet" not in receiver.__dict__:
            receiver.on_packet = _fused_on_packet(  # type: ignore[method-assign]
                scheduler, receiver, ack_route
            )
        to_receiver: _Route = (one_way, flow_lane, receiver.on_packet)
        for direction, chain, last in ((0, forward, to_receiver), (1, reverse, to_sender)):
            routes = [(0.0, None, entry(direction, there)) for there in chain[1:]]
            for index, route in zip(chain, routes + [last]):
                tables[direction][index][flow_id] = _generic_handoff(scheduler, route)
                nexts[direction][index][flow_id] = _across(
                    scheduler, chains[direction][index].propagation_delay, route
                )


# --------------------------------------------------------------------------
# Fused-closure factories.  Each mirrors its generic counterpart line for
# line — same expressions, same evaluation order, same counter updates — so
# a fused run executes the identical float program.  The generic originals
# are: ``Receiver.on_packet``, ``Sender.on_ack``, the networks' per-hop
# dispatch (``repro.netsim.path._deliver``),
# ``ConstantRateLink._start_transmission`` / ``_finish_transmission`` /
# ``receive`` and ``DropTailQueue.enqueue`` / ``dequeue``.
#
# Every closure posts the same way, decided by what it was handed at fuse
# time: onto a lane on a lane topology (``[time, sequence, callback,
# packet]``), else straight onto the heap (``EventScheduler.post_after``
# inlined, args tuple).  A heap push that can happen while lanes hold
# entries must bump ``_heap_version`` (the lane merge trusts a cached heap
# head until it moves); no packet hand-off pays that: the one topology with
# lanes routes every hand-off over a lane, and the only inline push that can
# land on its heap — the sender's pacing timer — bumps it.
# --------------------------------------------------------------------------


def _generic_handoff(
    scheduler: EventScheduler, route: _Route
) -> Callable[[Packet], None]:
    """``route`` as the plain callable the generic wiring stores."""
    delay, _, sink = route
    if not delay:
        return sink
    # The entry ``post_after`` returns is dropped: nothing cancels a hand-off.
    return cast("Callable[[Packet], None]", partial(scheduler.post_after, delay, sink))


def _plain_fifo(queue: QueueDiscipline) -> Optional["deque[Packet]"]:
    """The queue's FIFO when it is an un-overridden DropTail (or
    InfiniteQueue), whose bookkeeping the closures may inline; else ``None``."""
    if (
        isinstance(queue, DropTailQueue)
        and type(queue).enqueue is DropTailQueue.enqueue
        and type(queue).dequeue is DropTailQueue.dequeue
    ):
        return queue._queue
    return None


def _fuse_hop(
    scheduler: EventScheduler,
    link: ConstantRateLink,
    routes: list[_Route],
    ser_lane: _Lane,
    lane_bytes: int,
) -> None:
    """Rebind one constant-rate hop's per-packet methods to fused closures.

    ``routes`` is the hop's per-flow hand-off table, the hop's own
    propagation delay already folded in (:func:`_across`).
    """
    link._start_transmission = _fused_start(  # type: ignore[method-assign]
        scheduler, link, ser_lane, lane_bytes
    )
    link._finish_transmission = _fused_finish(  # type: ignore[method-assign]
        scheduler, link, ser_lane, lane_bytes, routes
    )
    fuse_receive = (
        _fused_receive_generic
        if _plain_fifo(link.queue) is None
        else _fused_receive_droptail
    )
    link.receive = fuse_receive(scheduler, link)  # type: ignore[method-assign]

    def connect(deliver: Callable[[Packet], None]) -> None:
        # ``link.connect`` after the build (a test spy): every flow's packet
        # goes to ``deliver`` from now on, exactly as the generic finish
        # step would hand it over.
        link.deliver = deliver
        routes[:] = [(link.propagation_delay, None, deliver)] * len(routes)

    link.connect = connect  # type: ignore[method-assign]


def _across(scheduler: EventScheduler, delay: float, route: _Route) -> _Route:
    """``route`` as a hop with propagation ``delay`` hands it off.

    The generic hop posts its ``deliver`` that far ahead, which then
    dispatches on the flow: straight into the next hop's entry — posted
    here in ``deliver``'s place — or across a further delay, which stays a
    second event.  (Heap only: the dumbbell bottleneck, the one hop that
    rides lanes, has no propagation delay.)
    """
    if not delay:
        return route
    onward, _, sink = route
    if not onward:
        return (delay, None, sink)
    heap = scheduler._heap

    def deliver(packet: Packet) -> None:
        heappush(heap, [scheduler.now + onward, scheduler._sequence, sink, (packet,)])
        scheduler._sequence += 1

    return (delay, None, deliver)


def _fused_on_packet(
    scheduler: EventScheduler, receiver: Receiver, ack_route: _Route
) -> Callable[[Packet], None]:
    """``Receiver.on_packet`` with ``make_ack``'s in-place pooled conversion
    and the ACK emission inlined: across the one-way delay to the sender on
    an ideal reverse path, into the first reverse hop on a congested one."""
    delay, lane, sink = ack_route
    heap = scheduler._heap
    stats = receiver.stats
    out_of_order = receiver._out_of_order
    flow_id = receiver.flow_id  # fixed at attach time

    def on_packet(packet: Packet) -> None:
        if packet.is_ack:
            raise ValueError("receiver got an ACK packet")
        if packet.flow_id != flow_id:
            raise ValueError(
                f"receiver for flow {flow_id} got packet of flow {packet.flow_id}"
            )
        seq = packet.seq
        next_expected = receiver.next_expected
        if seq >= next_expected and seq not in out_of_order:
            stats.bytes_received += packet.size_bytes
            stats.packets_received += 1
            if seq == next_expected:
                next_expected += 1
                while next_expected in out_of_order:
                    out_of_order.discard(next_expected)
                    next_expected += 1
                receiver.next_expected = next_expected
            else:
                out_of_order.add(seq)
        else:
            receiver.duplicates += 1
        # In every branch above the local ``next_expected`` ends equal to
        # ``receiver.next_expected`` (updated in the in-order arm, untouched
        # otherwise), so the ACK fields read the local.
        now = scheduler.now
        if packet._pool is not None:
            # Packet.make_ack, pooled branch inlined: the dead data packet
            # is converted into its acknowledgment in place.
            packet.size_bytes = ACK_PACKET_BYTES
            packet.is_ack = True
            packet.ack_seq = next_expected
            packet.sacked_seq = seq
            packet.echo_sent_time = packet.sent_time
            packet.sent_time = now
            packet.receiver_time = now
            packet.ecn_echo = packet.ecn_marked
            packet.ecn_capable = False
            packet.ecn_marked = False
            packet.enqueue_time = 0.0
            ack = packet
        else:
            ack = packet.make_ack(ack_seq=next_expected, receiver_time=now)
        if lane is not None:
            lane.append([now + delay, scheduler._sequence, sink, ack])
            scheduler._sequence += 1
        elif delay:
            heappush(heap, [now + delay, scheduler._sequence, sink, (ack,)])
            scheduler._sequence += 1
        else:
            sink(ack)

    return on_packet


def _fused_sender_on_ack(
    scheduler: EventScheduler,
    sender: Sender,
    send_inline: Optional[tuple[ConstantRateLink, DropTailQueue]] = None,
) -> Callable[..., None]:
    """``Sender.on_ack`` with ``_maybe_send``/``_send_one`` inlined.

    One closure replaces the per-acknowledgment chain of four frames
    (``on_ack`` → ``_update_recovery_state`` → ``_maybe_send`` →
    ``_send_one``), with the flow's stable per-flow state — the in-flight
    map, the flight frontier, the stats block, the congestion module, the
    transmit sink — captured as closure cells.  Called with no ACK it is
    ``Sender._pacing_fire``: the pacing timer skips the acknowledgment half
    and falls into the same send loop.  Mutable scalars (sequence
    counters, RTT estimator, recovery flags, timers) stay on the sender
    instance: the cold paths (``_switch_on``/``_switch_off``, RTO fire)
    still run the generic methods and must see the same state.  Arming the
    pacing timer (``_schedule_pacing`` and its heap push) and the packet
    pool's recycle/release fast paths are inlined too (debug pools
    fall back to the methods so leak tracking still observes every packet).
    When ``send_inline`` names the loss-free DropTail hop the sender
    transmits into, the tail-drop enqueue is inlined in place of the
    ``transmit`` call.  Every expression mirrors the generic body in
    evaluation order, which the golden matrix pins.
    """
    cc = sender.cc
    cc_on_ack = cc.on_ack
    stats = sender.stats
    in_flight = sender.in_flight
    frontier = sender._flight_frontier
    transmit = sender.transmit  # the first hop's fused receive (or loss gate)
    pool = sender.pool
    mss_bytes = sender.mss_bytes
    flow_id = sender.flow_id
    trace_sequence = sender.trace_sequence
    cc_observes_sends = sender._cc_observes_sends
    uses_ecn = cc.uses_ecn  # class-level constant on every protocol
    tuple_new = tuple.__new__
    sent_new = _SentInfo.__new__
    heap = scheduler._heap
    assert transmit is not None  # attach_flow wired it before fuse
    if send_inline is not None:
        link, queue = send_inline
        fifo = queue._queue
        capacity_packets = queue.capacity_packets  # fixed at construction
        # Seal check of an armed link, frozen at fuse time (``seal_drain``
        # is 0.0 on every other link, which skips it).
        seal_drain = link._seal_drain
        seal_budget = link._seal_budget
    else:
        link = queue = fifo = None  # type: ignore[assignment]
        capacity_packets = 0
        seal_drain = seal_budget = 0.0
    # Pool fast paths are only inlined for non-debug pools: the debug pool's
    # identity tracking must observe every allocate/release.  Debug-ness is
    # fixed at pool construction, so checking once at fuse time is safe.
    if pool is not None and pool._live is None:
        fast_pool: Optional[PacketPool] = pool
        fast_free: Optional[list[Packet]] = pool._free
    else:
        fast_pool = None
        fast_free = None

    def on_ack(ack: Optional[Packet] = None) -> None:
        if ack is None:
            # Pacing timer (``Sender._pacing_fire`` is rebound to this
            # closure): no acknowledgment half, straight to the send loop.
            sender._pacing_event = None
            if sender.state != "on":
                return
            now = scheduler.now
            rq = sender.retransmit_queue
        else:
            if not ack.is_ack:
                raise ValueError("sender got a data packet")
            if sender.state != "on":
                ack.release()  # stale ACK from an abandoned flow
                return
            if ack.echo_sent_time < sender.on_start_time:
                ack.release()  # stale ACK from a previous on-period
                return
            now = scheduler.now

            ack_seq = ack.ack_seq
            newly_acked_bytes = 0
            while frontier and frontier[0] < ack_seq:
                info = in_flight.pop(heappop(frontier), None)
                if info is not None:
                    newly_acked_bytes += info.size_bytes
            info = in_flight.pop(ack.sacked_seq, None)
            if info is not None:
                newly_acked_bytes += info.size_bytes
            # ``rq`` aliases ``sender.retransmit_queue`` for the rest of the
            # call: every mutation below is in place (or rebinds both), and the
            # cold helpers (``_fast_retransmit``) only mutate in place.
            rq = sender.retransmit_queue
            if rq:
                sender.retransmit_queue = rq = deque(s for s in rq if s >= ack_seq)

            # RTT estimation (Karn's rule: ignore retransmitted segments).
            rtt: Optional[float] = None
            if not ack.retransmit:
                rtt = now - ack.echo_sent_time
                if rtt > 0:
                    min_rtt = sender.min_rtt
                    if min_rtt is None or rtt < min_rtt:
                        sender.min_rtt = rtt
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

            is_duplicate = ack_seq <= sender.highest_cum_ack
            # _update_recovery_state, inlined.
            if not is_duplicate:
                sender.highest_cum_ack = ack_seq
                sender.dup_count = 0
                if sender.in_recovery:
                    if ack_seq > sender.recovery_point:
                        sender.in_recovery = False
                    elif ack_seq in in_flight and ack_seq not in rq:
                        rq.appendleft(ack_seq)
            else:
                sender.dup_count += 1
                if sender.dup_count >= DUPACK_THRESHOLD and not sender.in_recovery:
                    sender._fast_retransmit(ack_seq, now)

            cc_on_ack(
                tuple_new(
                    AckInfo,
                    (
                        now,
                        ack.sacked_seq,
                        ack_seq,
                        newly_acked_bytes,
                        rtt,
                        sender.min_rtt,
                        ack.echo_sent_time,
                        ack.receiver_time,
                        ack.ecn_echo,
                        len(in_flight),
                        ack.xcp_feedback,
                        is_duplicate,
                    ),
                )
            )

            if trace_sequence:
                stats.sequence_trace.append((now, ack_seq))

            ack_pool = ack._pool
            if ack_pool is not None:
                if ack_pool._live is None:
                    # PacketPool.release, non-debug branch inlined.
                    ack_pool.released += 1
                    ack_pool._free.append(ack)
                else:
                    ack_pool.release(ack)

            if sender.segments_remaining == 0 and not in_flight and not rq:
                sender._switch_off()
                return

            if in_flight:
                sender._rto_deadline = deadline = now + sender.rto
                entry = sender._rto_event
                if entry is None or entry[2] is None or entry[0] > deadline:
                    sender._arm_rto(restart=True)
            else:
                entry = sender._rto_event
                if entry is not None:
                    scheduler.cancel_entry(entry)
                sender._rto_event = None

        # _maybe_send, inlined for as long as the sender feeds the sink
        # captured above (the state is still "on" here: only _switch_off,
        # which returned, leaves it).  A sealed sender — ``Sender.seal``
        # swapped or cleared its ``transmit`` — takes the generic method.
        if sender.transmit is not transmit:
            sender._maybe_send()
            return
        retransmit_queue = rq
        while True:
            if not retransmit_queue:
                remaining = sender.segments_remaining
                if remaining is not None and remaining <= 0:
                    return
                window = cc.cwnd
                if len(in_flight) >= (window if window > 1.0 else 1.0):
                    return
            intersend = cc.intersend_time
            if intersend > 0:
                next_allowed = sender.last_send_time + intersend
                if now < next_allowed - 1e-12:
                    # _schedule_pacing and the heap push under it, inlined
                    # (``next_allowed`` is in the future, so no clamp).
                    entry = sender._pacing_event
                    if entry is not None and entry[2] is not None:  # still armed
                        if entry[0] <= next_allowed + 1e-12:
                            return
                        scheduler.cancel_entry(entry)
                    sender._pacing_event = entry = [
                        next_allowed, scheduler._sequence, sender._pacing_fire, ()
                    ]
                    scheduler._sequence += 1
                    heappush(heap, entry)
                    scheduler._heap_version += 1
                    return
            # _send_one, inlined.
            if retransmit_queue:
                seq = retransmit_queue.popleft()
                retransmit = True
            else:
                seq = sender.next_seq
                sender.next_seq = seq + 1
                if sender.segments_remaining is not None:
                    sender.segments_remaining -= 1
                retransmit = False
            if fast_free:
                # PacketPool.data, freelist-hit branch inlined (non-debug).
                # ``retransmit``/``ecn_capable`` resets are folded into the
                # unconditional stores a few lines down.
                assert fast_pool is not None
                packet = fast_free.pop()
                fast_pool.recycled += 1
                packet.flow_id = flow_id
                packet.seq = seq
                packet.size_bytes = mss_bytes
                packet.sent_time = now
                packet.first_sent_time = now
                packet.is_ack = False
                packet.ack_seq = -1
                packet.sacked_seq = -1
                packet.echo_sent_time = 0.0
                packet.ecn_marked = False
                packet.ecn_echo = False
                packet.enqueue_time = 0.0
                packet.xcp_cwnd = 0.0
                packet.xcp_rtt = 0.0
                packet.xcp_demand = 0.0
                packet.xcp_feedback = 0.0
                packet.receiver_time = 0.0
            elif pool is not None:
                packet = pool.data(flow_id, seq, mss_bytes, now)
            else:
                packet = Packet(flow_id, seq, size_bytes=mss_bytes, sent_time=now)
            packet.retransmit = retransmit
            packet.ecn_capable = uses_ecn
            info = in_flight.get(seq)
            if info is not None and retransmit:
                packet.first_sent_time = info.first_sent_time
                info.sent_time = now
                info.retransmitted = True
            else:
                # _SentInfo built by slot stores: same values, no dataclass
                # __init__ frame per sent packet.
                info = sent_new(_SentInfo)
                info.sent_time = now
                info.first_sent_time = now
                info.retransmitted = retransmit
                info.size_bytes = mss_bytes
                in_flight[seq] = info
                heappush(frontier, seq)
            stats.packets_sent += 1
            if retransmit:
                stats.retransmissions += 1
            if cc_observes_sends:
                cc.on_packet_sent(packet, now)
            sender.last_send_time = now
            if fifo is None:
                transmit(packet)
            elif len(fifo) >= capacity_packets:
                # DropTail receive, inlined: tail overflow drops the packet.
                queue.drops += 1
                packet.release()
            else:
                packet.enqueue_time = now
                fifo.append(packet)
                queue._bytes = queued = queue._bytes + mss_bytes
                queue.enqueues += 1
                if not link._busy:
                    link._start_transmission()
                if seal_drain and queued > seal_budget - now * seal_drain:
                    # ConstantRateLink._receive_sealable's check, inlined:
                    # this enqueue drowned the link.  Sealing swaps every
                    # sender's ``transmit``, so finish this send and hand
                    # the rest of the loop to the generic method.
                    link.seal()
                    entry = sender._rto_event
                    if entry is None or entry[2] is None:
                        sender._arm_rto()
                    sender._maybe_send()
                    return
            entry = sender._rto_event
            if entry is None or entry[2] is None:
                sender._arm_rto()

    return on_ack


def _fused_finish(
    scheduler: EventScheduler,
    link: ConstantRateLink,
    ser_lane: _Lane,
    lane_bytes: int,
    routes: list[_Route],
) -> Callable[[Packet], None]:
    """``ConstantRateLink._finish_transmission``: emit + hand off + successor.

    The hand-off is the flow's route at this hop.  The run-to-completion
    successor — dequeue the next packet, record its queueing delay, start
    its serialization — is the body of :func:`_fused_start` pasted in place
    of the ``_start_transmission()`` call, saving one frame per delivered
    packet.
    """
    queue = link.queue
    fifo = _plain_fifo(queue)
    droptail = cast(DropTailQueue, queue)  # only touched when ``fifo`` is set
    # Appended to only when ``lane_bytes`` matches, i.e. on a lane topology.
    ser = cast("deque[list[Any]]", ser_lane)
    heap = scheduler._heap
    rate_bps = link.rate_bps
    # Identity-stable references, fixed before fuse runs: the networks
    # assign ``delay_stats`` / ``hop_delay_stats`` once at construction (and
    # mutate the dicts in place); reverse hops carry neither.
    # ``delay_observer`` stays a call-time read (tests attach it late).
    stats_map = link.delay_stats
    hop_map = link.hop_delay_stats

    def finish_transmission(packet: Packet) -> None:
        now = scheduler.now
        link.packets_delivered += 1
        link.bytes_delivered += packet.size_bytes
        try:
            route = routes[packet.flow_id]
        except IndexError:
            packet.release()  # packet from a detached flow (should not happen)
        else:
            lane = route[1]
            if lane is not None:
                lane.append([now + route[0], scheduler._sequence, route[2], packet])
                scheduler._sequence += 1
            elif route[0]:
                heappush(
                    heap, [now + route[0], scheduler._sequence, route[2], (packet,)]
                )
                scheduler._sequence += 1
            else:
                route[2](packet)
        if fifo:
            packet = fifo.popleft()
            size_bytes = packet.size_bytes
            droptail._bytes -= size_bytes
            droptail.dequeues += 1
        elif fifo is None:
            dequeued = queue.dequeue(now)
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
        elif stats_map is not None:
            stats = stats_map.get(packet.flow_id)
            if stats is not None:
                delay = now - packet.enqueue_time
                if delay < 0.0:
                    delay = 0.0
                stats.queue_delay_sum += delay
                stats.queue_delay_count += 1
                if delay > stats.max_queue_delay:
                    stats.max_queue_delay = delay
                if hop_map is not None:
                    hop = hop_map.get(packet.flow_id)
                    if hop is not None:
                        hop.delay_sum += delay
                        hop.count += 1
                        if delay > hop.max_delay:
                            hop.max_delay = delay
        link._busy = True
        # Posted through the link's (rebound) attribute, like ``_fused_start``:
        # a closure naming itself is a cycle ``LinkBase.release`` cannot cut.
        if size_bytes == lane_bytes:
            ser.append(
                [
                    now + size_bytes * 8 / rate_bps,
                    scheduler._sequence,
                    link._finish_transmission,
                    packet,
                ]
            )
            scheduler._sequence += 1
        elif ser_lane is None:
            heappush(
                heap,
                [
                    now + size_bytes * 8 / rate_bps,
                    scheduler._sequence,
                    link._finish_transmission,
                    (packet,),
                ],
            )
            scheduler._sequence += 1
        else:  # an off-size packet on a lane topology
            scheduler.post_after(
                size_bytes * 8 / rate_bps, link._finish_transmission, packet
            )

    return finish_transmission


def _fused_start(
    scheduler: EventScheduler,
    link: ConstantRateLink,
    ser_lane: _Lane,
    lane_bytes: int,
) -> Callable[[], None]:
    """``ConstantRateLink._start_transmission``: dequeue, record the wait,
    serialize.

    An un-overridden DropTail's dequeue is the FIFO pop, inlined; any other
    discipline keeps its own ``dequeue``.  The delay-observer/delay-stats
    precedence is read at call time exactly like the generic body (a test
    may attach an observer after construction).
    """
    queue = link.queue
    fifo = _plain_fifo(queue)
    droptail = cast(DropTailQueue, queue)  # only touched when ``fifo`` is set
    # Appended to only when ``lane_bytes`` matches, i.e. on a lane topology.
    ser = cast("deque[list[Any]]", ser_lane)
    heap = scheduler._heap
    rate_bps = link.rate_bps
    stats_map = link.delay_stats  # identity-stable (see _fused_finish)
    hop_map = link.hop_delay_stats

    def start_transmission() -> None:
        now = scheduler.now
        if fifo:
            packet = fifo.popleft()
            size_bytes = packet.size_bytes
            droptail._bytes -= size_bytes
            droptail.dequeues += 1
        elif fifo is None:
            dequeued = queue.dequeue(now)
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
        elif stats_map is not None:
            stats = stats_map.get(packet.flow_id)
            if stats is not None:
                delay = now - packet.enqueue_time
                if delay < 0.0:
                    delay = 0.0
                stats.queue_delay_sum += delay
                stats.queue_delay_count += 1
                if delay > stats.max_queue_delay:
                    stats.max_queue_delay = delay
                if hop_map is not None:
                    hop = hop_map.get(packet.flow_id)
                    if hop is not None:
                        hop.delay_sum += delay
                        hop.count += 1
                        if delay > hop.max_delay:
                            hop.max_delay = delay
        link._busy = True
        if size_bytes == lane_bytes:
            ser.append(
                [
                    now + size_bytes * 8 / rate_bps,
                    scheduler._sequence,
                    link._finish_transmission,
                    packet,
                ]
            )
            scheduler._sequence += 1
        elif ser_lane is None:
            heappush(
                heap,
                [
                    now + size_bytes * 8 / rate_bps,
                    scheduler._sequence,
                    link._finish_transmission,
                    (packet,),
                ],
            )
            scheduler._sequence += 1
        else:  # an off-size packet on a lane topology
            scheduler.post_after(
                size_bytes * 8 / rate_bps, link._finish_transmission, packet
            )

    return start_transmission


def _fused_receive_droptail(
    scheduler: EventScheduler, link: ConstantRateLink
) -> Callable[[Packet], None]:
    """``receive`` with the DropTail enqueue inlined (tail drop + FIFO append).

    On a link armed by ``arm_seal`` it also carries
    ``ConstantRateLink._receive_sealable``'s seal check, so both engines
    seal at the same enqueue; the parameters are frozen at fuse time
    (``seal_drain`` is 0.0 on every other link, which skips it).
    """
    queue = cast(DropTailQueue, link.queue)
    fifo = queue._queue
    seal_drain = link._seal_drain
    seal_budget = link._seal_budget

    def receive(packet: Packet) -> None:
        if len(fifo) >= queue.capacity_packets:
            queue.drops += 1
            packet.release()  # drop sink: tail overflow
            return
        packet.enqueue_time = now = scheduler.now
        fifo.append(packet)
        queue._bytes = queued = queue._bytes + packet.size_bytes
        queue.enqueues += 1
        if not link._busy:
            link._start_transmission()
        if seal_drain and queued > seal_budget - now * seal_drain:
            link.seal()

    return receive


def _fused_receive_generic(
    scheduler: EventScheduler, link: ConstantRateLink
) -> Callable[[Packet], None]:
    """``receive`` for AQM disciplines (enqueue may drop or ECN-mark)."""
    queue = link.queue

    def receive(packet: Packet) -> None:
        if queue.enqueue(packet, scheduler.now) and not link._busy:
            link._start_transmission()

    return receive
