"""Receiver endpoint: in-order tracking, duplicate filtering and ACK generation.

The paper keeps receivers unchanged: they simply acknowledge arriving data.
Our receiver produces one acknowledgment per arriving data packet, carrying
the cumulative acknowledgment, the sequence number that triggered the ACK,
the echoed sender timestamp and any ECN / XCP header fields.
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
        self.on_packet: Callable[[Packet], None] = unwired

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
        """
        receiver = self
        scheduler = self.scheduler
        heap = scheduler._heap
        stats = self.stats
        out_of_order = self._out_of_order
        flow_id = self.flow_id

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
                    # Drain any buffered out-of-order segments now in order.
                    while next_expected in out_of_order:
                        out_of_order.discard(next_expected)
                        next_expected += 1
                    receiver.next_expected = next_expected
                else:
                    out_of_order.add(seq)
            else:
                receiver.duplicates += 1
            # In every branch the local ``next_expected`` ends equal to
            # ``receiver.next_expected``, so the ACK fields read the local.
            now = scheduler.now
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
                lane.append([now + delay, scheduler._sequence, send_ack, ack])
                scheduler._sequence += 1
            elif delay:
                heappush(heap, [now + delay, scheduler._sequence, send_ack, (ack,)])
                scheduler._sequence += 1
            else:
                send_ack(ack)

        self.on_packet = on_packet

    def release(self) -> None:
        """Cut the endpoint's wiring once its simulation has run."""
        self.on_packet = unwired

    def reset(self) -> None:
        """Forget reassembly state (used when a sender restarts sequencing)."""
        self.next_expected = 0
        self._out_of_order.clear()
