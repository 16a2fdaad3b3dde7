"""Packet and acknowledgment metadata.

Packets are plain mutable objects (``__slots__`` for speed) rather than
frozen dataclasses: routers stamp XCP feedback and ECN marks into them and
receivers echo fields back in acknowledgments, exactly as header fields are
rewritten in a real network.

One lifetime: the sender builds a data packet per transmission, the
receiver turns it into its acknowledgment in place (the data packet is dead
once acknowledged), and the sender's ACK handler, once it has digested the
acknowledgment, rewrites it into the next data packet it sends.  The last
reference — that handler when it sends nothing, or the queue or loss gate
that drops a packet — lets reference counting free it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

#: The data segment size in bytes (Ethernet MTU payload, as in ns-2 runs):
#: every data packet is this size, and every rate in packets (link
#: serialization, trace opportunities, protocol windows) converts with it.
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
        Sender timestamp at (re)transmission; echoed by the receiver (and,
        on an acknowledgment, the receiver's timestamp).
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
        True if this transmission is a retransmission (Karn's algorithm:
        its acknowledgment gives no RTT sample).
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else "DATA"
        return f"Packet({kind} flow={self.flow_id} seq={self.seq} bytes={self.size_bytes})"


class AckInfo(NamedTuple):
    """Digest of an acknowledgment handed to a congestion-control module.

    All times are absolute simulation seconds unless stated otherwise.  It
    carries what some module in :mod:`repro.protocols` reads (the RemyCC's
    three signals come from ``now``, ``echo_sent_time`` and ``rtt``, §4.1)
    and nothing else; a module that keeps more state, such as a minimum
    RTT, keeps it itself.  A NamedTuple rather than a frozen dataclass: one
    is built per ACK, and a tuple constructs several times faster than a
    frozen dataclass (whose ``__init__`` goes through ``object.__setattr__``
    per field) while staying just as immutable.
    """

    now: float
    #: Bytes newly acknowledged by this ACK (0 for duplicate ACKs).
    newly_acked_bytes: int
    #: Round-trip time measured from this ACK (None for retransmitted segments).
    rtt: Optional[float]
    #: Sender timestamp echoed by the receiver (time the data packet left).
    echo_sent_time: float
    #: True if the receiver echoed an ECN congestion-experienced mark.
    ecn_echo: bool = False
    #: Number of packets currently in flight (after accounting this ACK).
    in_flight: int = 0
    #: XCP feedback echoed from the router (change in cwnd, packets).
    xcp_feedback: float = 0.0
