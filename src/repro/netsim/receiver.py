"""Receiver endpoint: in-order tracking, duplicate filtering and ACK generation.

The paper keeps receivers unchanged: they simply acknowledge arriving data.
Our receiver produces one acknowledgment per arriving data packet, carrying
the cumulative acknowledgment, the sequence number that triggered the ACK,
the echoed sender timestamp and any ECN / XCP header fields.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.netsim.events import EventScheduler
from repro.netsim.packet import Packet
from repro.netsim.stats import FlowStats

SendAckFn = Callable[[Packet], None]


class Receiver:
    """Receiving endpoint for a single flow."""

    def __init__(
        self,
        flow_id: int,
        scheduler: EventScheduler,
        send_ack: Optional[SendAckFn] = None,
        stats: Optional[FlowStats] = None,
    ) -> None:
        self.flow_id = flow_id
        self.scheduler = scheduler
        self.send_ack = send_ack
        self.stats = stats if stats is not None else FlowStats(flow_id)
        self.next_expected = 0
        self._out_of_order: set[int] = set()
        self.duplicates = 0

    def connect(self, send_ack: SendAckFn) -> None:
        """Set the callback used to return acknowledgments to the sender."""
        self.send_ack = send_ack

    def release(self) -> None:
        """Cut the endpoint's wiring once its simulation has run."""
        self.send_ack = None
        self.__dict__.pop("on_packet", None)  # kernel closure or sanitizer wrapper

    def reset(self) -> None:
        """Forget reassembly state (used when a sender restarts sequencing)."""
        self.next_expected = 0
        self._out_of_order.clear()

    def on_packet(self, packet: Packet) -> None:
        """Handle an arriving data packet and emit its acknowledgment.

        This is the data packet's delivery sink: ``make_ack`` converts a
        pooled packet into its acknowledgment in place, so the packet must
        not be touched after that call (the ACK's eventual sink — normally
        the sender's ``on_ack`` — releases the instance back to the pool).
        """
        if packet.is_ack:
            raise ValueError("receiver got an ACK packet")
        if packet.flow_id != self.flow_id:
            raise ValueError(
                f"receiver for flow {self.flow_id} got packet of flow {packet.flow_id}"
            )

        seq = packet.seq
        next_expected = self.next_expected
        if seq >= next_expected and seq not in self._out_of_order:
            stats = self.stats  # record_delivery, inlined on the per-packet path
            stats.bytes_received += packet.size_bytes
            stats.packets_received += 1
            if seq == next_expected:
                next_expected += 1
                # Drain any buffered out-of-order segments that are now in order.
                while next_expected in self._out_of_order:
                    self._out_of_order.discard(next_expected)
                    next_expected += 1
                self.next_expected = next_expected
            else:
                self._out_of_order.add(seq)
        else:
            self.duplicates += 1

        ack = packet.make_ack(ack_seq=self.next_expected, receiver_time=self.scheduler.now)
        if self.send_ack is None:
            raise RuntimeError("receiver has no ACK path connected")
        self.send_ack(ack)
