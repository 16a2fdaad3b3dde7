"""Packet and acknowledgment metadata.

Packets are plain mutable objects (``__slots__`` for speed) rather than
frozen dataclasses: routers stamp XCP feedback and ECN marks into them and
receivers echo fields back in acknowledgments, exactly as header fields are
rewritten in a real network.

Packet pooling (PR 3).  A simulation constructs one packet per transmission
and one acknowledgment per delivery; at a few hundred thousand events per
second the allocator churn of those short-lived objects is a measurable
share of the hot path.  :class:`PacketPool` is a per-simulator freelist:
senders draw data packets from it, :meth:`Packet.make_ack` converts a pooled
data packet into its acknowledgment *in place* (the data packet is dead the
moment the receiver acknowledges it, so no second object is needed), and the
sinks — the sender's ACK handler and every queue drop path — hand instances
back via :meth:`Packet.release`.  Ownership rule: whoever holds the last
reference to a dead packet releases it; a packet handed onward (enqueued,
scheduled, delivered) is no longer the giver's to release.  Packets built
directly with :class:`Packet` are unpooled; ``release()`` is a no-op for
them, so test code and external callers need no changes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

#: Default data segment size in bytes (Ethernet MTU payload, as in ns-2 runs).
DATA_PACKET_BYTES = 1500

#: Default acknowledgment size in bytes.
ACK_PACKET_BYTES = 40


class Packet:
    """A data packet or acknowledgment travelling through the simulator.

    Attributes
    ----------
    flow_id:
        Index of the sending flow.
    seq:
        Sequence number of the data segment (segments, not bytes).
    size_bytes:
        Wire size of the packet.
    sent_time:
        Sender timestamp at (re)transmission; echoed by the receiver.
    first_sent_time:
        Sender timestamp of the segment's *first* transmission (Karn's
        algorithm: retransmitted segments do not update RTT estimates).
    is_ack:
        True for acknowledgments flowing back to the sender.
    ack_seq:
        Cumulative acknowledgment — highest in-order segment received + 1.
    sacked_seq:
        The specific segment whose arrival generated this ACK.
    echo_sent_time:
        The data packet's ``sent_time`` echoed back to the sender.
    ecn_capable / ecn_marked / ecn_echo:
        Explicit Congestion Notification bits (used by DCTCP/RED).
    retransmit:
        True if this transmission is a retransmission.
    enqueue_time:
        Stamped by queues on arrival; used by CoDel for sojourn time.
    xcp_*:
        XCP congestion header: sender's current cwnd (packets), RTT estimate
        (seconds), demand (requested throughput change, packets/s) and the
        router-computed feedback (change in packets per ACK, may be negative).
    """

    __slots__ = (
        "flow_id",
        "seq",
        "size_bytes",
        "sent_time",
        "first_sent_time",
        "is_ack",
        "ack_seq",
        "sacked_seq",
        "echo_sent_time",
        "ecn_capable",
        "ecn_marked",
        "ecn_echo",
        "retransmit",
        "enqueue_time",
        "xcp_cwnd",
        "xcp_rtt",
        "xcp_demand",
        "xcp_feedback",
        "receiver_time",
        "_pool",
    )

    def __init__(
        self,
        flow_id: int,
        seq: int,
        size_bytes: int = DATA_PACKET_BYTES,
        sent_time: float = 0.0,
        is_ack: bool = False,
    ) -> None:
        self.flow_id = flow_id
        self.seq = seq
        self.size_bytes = size_bytes
        self.sent_time = sent_time
        self.first_sent_time = sent_time
        self.is_ack = is_ack
        self.ack_seq = -1
        self.sacked_seq = -1
        self.echo_sent_time = 0.0
        self.ecn_capable = False
        self.ecn_marked = False
        self.ecn_echo = False
        self.retransmit = False
        self.enqueue_time = 0.0
        self.xcp_cwnd = 0.0
        self.xcp_rtt = 0.0
        self.xcp_demand = 0.0
        self.xcp_feedback = 0.0
        self.receiver_time = 0.0
        self._pool: Optional["PacketPool"] = None

    def make_ack(self, ack_seq: int, receiver_time: float, size_bytes: int = ACK_PACKET_BYTES) -> "Packet":
        """Build the acknowledgment for this data packet.

        A pooled data packet is converted into its acknowledgment *in place*
        (it is dead once acknowledged, so reusing the instance saves an
        allocation plus a full field reset); the caller must treat the data
        packet as consumed.  Unpooled packets get a fresh ACK object, leaving
        the original untouched.
        """
        if self._pool is not None:
            # Fields not assigned here are deliberately carried over: flow_id
            # and seq identify the acked segment, first_sent_time and
            # retransmit implement Karn's rule, and the XCP header is echoed
            # so the sender learns the router feedback.
            self.size_bytes = size_bytes
            self.is_ack = True
            self.ack_seq = ack_seq
            self.sacked_seq = self.seq
            self.echo_sent_time = self.sent_time
            self.sent_time = receiver_time
            self.receiver_time = receiver_time
            self.ecn_echo = self.ecn_marked
            self.ecn_capable = False
            self.ecn_marked = False
            self.enqueue_time = 0.0
            return self
        ack = Packet(self.flow_id, self.seq, size_bytes=size_bytes, is_ack=True)
        ack.ack_seq = ack_seq
        ack.sacked_seq = self.seq
        ack.echo_sent_time = self.sent_time
        ack.sent_time = receiver_time
        ack.first_sent_time = self.first_sent_time
        ack.receiver_time = receiver_time
        ack.ecn_echo = self.ecn_marked
        ack.retransmit = self.retransmit
        # Echo the XCP header so the sender learns the router feedback.
        ack.xcp_cwnd = self.xcp_cwnd
        ack.xcp_rtt = self.xcp_rtt
        ack.xcp_demand = self.xcp_demand
        ack.xcp_feedback = self.xcp_feedback
        return ack

    def release(self) -> None:
        """Return this packet to its pool (no-op for unpooled packets).

        Call exactly once, at a delivery or drop sink, when no queue, event
        or endpoint holds a reference anymore.
        """
        pool = self._pool
        if pool is not None:
            pool.release(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else "DATA"
        return f"Packet({kind} flow={self.flow_id} seq={self.seq} bytes={self.size_bytes})"


class PacketPool:
    """Per-simulator freelist of :class:`Packet` instances.

    :meth:`data` hands out a fully re-initialised packet (every slot reset,
    so a recycled instance is indistinguishable from a fresh one — no stale
    ECN/XCP/ack state can leak between flows or across drop paths), either
    from the freelist or freshly constructed and branded with this pool.
    :meth:`release` returns a dead instance.  The pool is intentionally
    unbounded: a simulation's live-packet population is bounded by its
    windows and queues, so the freelist converges to that high-water mark.

    With ``debug=True`` the pool additionally tracks the identity of every
    live pooled packet: double releases and foreign packets raise
    immediately, ``in_use`` reports the live count, and
    :meth:`check_leaks` asserts the expected number of packets is still out.
    """

    __slots__ = ("_free", "allocated", "recycled", "released", "_live")

    def __init__(self, debug: bool = False) -> None:
        self._free: list[Packet] = []
        #: Fresh constructions (freelist misses).
        self.allocated = 0
        #: Freelist hits (allocations served without constructing).
        self.recycled = 0
        #: Total releases back into the freelist.
        self.released = 0
        self._live: Optional[set[int]] = set() if debug else None

    def data(self, flow_id: int, seq: int, size_bytes: int, sent_time: float) -> Packet:
        """Allocate a data packet, recycling a released instance if possible."""
        free = self._free
        if free:
            packet = free.pop()
            self.recycled += 1
            packet.flow_id = flow_id
            packet.seq = seq
            packet.size_bytes = size_bytes
            packet.sent_time = sent_time
            packet.first_sent_time = sent_time
            packet.is_ack = False
            packet.ack_seq = -1
            packet.sacked_seq = -1
            packet.echo_sent_time = 0.0
            packet.ecn_capable = False
            packet.ecn_marked = False
            packet.ecn_echo = False
            packet.retransmit = False
            packet.enqueue_time = 0.0
            packet.xcp_cwnd = 0.0
            packet.xcp_rtt = 0.0
            packet.xcp_demand = 0.0
            packet.xcp_feedback = 0.0
            packet.receiver_time = 0.0
        else:
            packet = Packet(flow_id, seq, size_bytes=size_bytes, sent_time=sent_time)
            packet._pool = self
            self.allocated += 1
        if self._live is not None:
            self._live.add(id(packet))
        return packet

    def release(self, packet: Packet) -> None:
        """Return a dead pooled packet to the freelist."""
        if self._live is not None:
            ident = id(packet)
            if ident not in self._live:
                raise RuntimeError(
                    f"release of a packet not live in this pool (double release?): {packet!r}"
                )
            self._live.remove(ident)
        self.released += 1
        self._free.append(packet)

    def clear(self) -> None:
        """Drop the freelist (in place: the fused sender aliases it), cutting
        the ``Packet._pool`` cycle; counters and debug accounting stay."""
        self._free.clear()

    @property
    def in_use(self) -> Optional[int]:
        """Live pooled packets (debug mode only; ``None`` otherwise)."""
        return len(self._live) if self._live is not None else None

    @property
    def free_count(self) -> int:
        """Instances currently parked in the freelist."""
        return len(self._free)

    def check_leaks(self, expected_in_use: int = 0) -> None:
        """Debug-mode leak check: raise unless exactly ``expected_in_use``
        packets are still out (packets parked in queues or in-flight events
        at simulation end are legitimate holders)."""
        if self._live is None:
            raise RuntimeError("check_leaks requires a PacketPool(debug=True)")
        if len(self._live) != expected_in_use:
            raise RuntimeError(
                f"packet pool leak: {len(self._live)} packets live, "
                f"expected {expected_in_use} "
                f"(allocated={self.allocated}, recycled={self.recycled}, "
                f"released={self.released})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketPool(allocated={self.allocated}, recycled={self.recycled}, "
            f"free={len(self._free)})"
        )


class AckInfo(NamedTuple):
    """Digest of an acknowledgment handed to a congestion-control module.

    All times are absolute simulation seconds unless stated otherwise.
    A NamedTuple rather than a frozen dataclass: one is built per ACK, and a
    tuple constructs several times faster than a frozen dataclass (whose
    ``__init__`` goes through ``object.__setattr__`` per field) while staying
    just as immutable.
    """

    now: float
    #: Segment whose arrival produced this ACK.
    acked_seq: int
    #: Cumulative acknowledgment (next expected segment).
    cumulative_ack: int
    #: Bytes newly acknowledged by this ACK (0 for duplicate ACKs).
    newly_acked_bytes: int
    #: Round-trip time measured from this ACK (None for retransmitted segments).
    rtt: Optional[float]
    #: Minimum RTT observed on the connection so far.
    min_rtt: Optional[float]
    #: Sender timestamp echoed by the receiver (time the data packet left).
    echo_sent_time: float
    #: Receiver timestamp when the data packet arrived.
    receiver_time: float
    #: True if the receiver echoed an ECN congestion-experienced mark.
    ecn_echo: bool = False
    #: Number of packets currently in flight (after accounting this ACK).
    in_flight: int = 0
    #: XCP feedback echoed from the router (change in cwnd, packets).
    xcp_feedback: float = 0.0
    #: True if this ACK is a duplicate (no new data acknowledged).
    is_duplicate: bool = False
