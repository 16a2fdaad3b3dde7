"""Receiver endpoint: in-order tracking, duplicate filtering and ACK generation.

The paper keeps receivers unchanged: they simply acknowledge arriving data.
Our receiver produces one acknowledgment per arriving data packet, carrying
the cumulative acknowledgment, the sequence number that triggered the ACK,
the echoed sender timestamp and any ECN / XCP header fields.

On an eager FIFO dumbbell (:class:`~repro.netsim.link.ConstantRateLink`)
the bottleneck knows each packet's arrival time when it enqueues it and
hands the packet over then: the receiver acknowledges it as of that time and
posts the ACK, so a data packet costs one event, the ACK's.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Optional

from repro.netsim.events import EventScheduler
from repro.netsim.kernel import Lane, unwired
from repro.netsim.packet import ACK_PACKET_BYTES, Packet
from repro.netsim.stats import FlowStats

SendAckFn = Callable[[Packet], None]


class Receiver:
    """Receiving endpoint for a single flow."""

    def __init__(
        self,
        flow_id: int,
        scheduler: EventScheduler,
        stats: Optional[FlowStats] = None,
    ) -> None:
        self.flow_id = flow_id
        self.scheduler = scheduler
        self.stats = stats if stats is not None else FlowStats(flow_id)
        self.next_expected = 0
        self._out_of_order: set[int] = set()
        self.duplicates = 0
        #: Where the network delivers this flow's data: the closure
        #: :meth:`connect` builds (until then, and after :meth:`release`,
        #: a sink that drops what reaches it).
        self.on_packet: Callable[..., None] = unwired

    def connect(self, send_ack: SendAckFn, delay: float = 0.0, lane: Lane = None) -> None:
        """Return acknowledgments to ``send_ack``, ``delay`` seconds ahead (on
        ``lane`` when one is given), and build :attr:`on_packet`.

        Each arriving data packet becomes its acknowledgment in place: the
        data packet is dead once acknowledged, so no second object is built.
        ``flow_id``, ``seq``, ``retransmit`` (Karn's rule) and the XCP
        header (the router feedback) carry over; the send time is echoed and
        replaced by the receiver's, the ECN mark becomes the echo, and the
        ECN bits and ``enqueue_time`` are reset.  Nothing may touch the data
        packet afterwards.

        ``on_packet(packet)`` is the arrival event; ``on_packet(packet, at)``
        is an eager FIFO hop (:class:`~repro.netsim.link.ConstantRateLink`)
        handing the packet over at enqueue, to arrive at ``at``: the packet
        is acknowledged as of ``at`` and the ACK posted ``delay`` after it,
        so the arrival itself costs no event.  Either way the ACK entry
        carries a fifth slot, the bytes the arrival added to
        ``bytes_received`` (0 for a duplicate), which :meth:`retract` takes
        back for an arrival timed after the run stopped.
        """
        receiver = self
        scheduler = self.scheduler
        heap = scheduler._heap
        stats = self.stats
        out_of_order = self._out_of_order
        flow_id = self.flow_id

        def on_packet(packet: Packet, at: Optional[float] = None) -> None:
            if packet.is_ack:
                raise ValueError("receiver got an ACK packet")
            if packet.flow_id != flow_id:
                raise ValueError(
                    f"receiver for flow {flow_id} got packet of flow {packet.flow_id}"
                )
            seq = packet.seq
            next_expected = receiver.next_expected
            # ``out_of_order`` only ever holds segments past ``next_expected``.
            if seq == next_expected or seq > next_expected and seq not in out_of_order:
                counted = packet.size_bytes
                stats.bytes_received += counted
                stats.packets_received += 1
                if seq == next_expected:
                    next_expected += 1
                    # Drain any buffered out-of-order segments now in order.
                    if out_of_order:
                        while next_expected in out_of_order:
                            out_of_order.discard(next_expected)
                            next_expected += 1
                    receiver.next_expected = next_expected
                else:
                    out_of_order.add(seq)
            else:
                counted = 0
                receiver.duplicates += 1
            # In every branch the local ``next_expected`` ends equal to
            # ``receiver.next_expected``, so the ACK fields read the local.
            now = scheduler.now if at is None else at
            ack = packet
            ack.size_bytes = ACK_PACKET_BYTES
            ack.is_ack = True
            ack.ack_seq = next_expected
            ack.sacked_seq = seq
            ack.echo_sent_time = ack.sent_time
            ack.sent_time = now
            ack.ecn_echo = ack.ecn_marked
            ack.ecn_capable = False
            ack.ecn_marked = False
            ack.enqueue_time = 0.0
            if lane is not None:
                lane.append([now + delay, scheduler._sequence, send_ack, ack, counted])
                scheduler._sequence += 1
            elif delay or at is not None:
                heappush(heap, [now + delay, scheduler._sequence, send_ack, (ack,), counted])
                scheduler._sequence += 1
            else:
                send_ack(ack)

        self.on_packet = on_packet

    def retract(self, counted: int) -> None:
        """Take back an arrival counted ahead of its time: one that an eager
        hop acknowledged at enqueue but that falls after the instant the run
        stopped.  ``counted`` is its ACK entry's fifth slot."""
        if counted:
            self.stats.bytes_received -= counted
            self.stats.packets_received -= 1
        else:
            self.duplicates -= 1

    def release(self) -> None:
        """Cut the endpoint's wiring once its simulation has run."""
        self.on_packet = unwired
