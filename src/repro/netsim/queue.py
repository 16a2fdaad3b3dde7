"""Queueing disciplines: the abstract interface, DropTail and infinite
queues, and :func:`build_queue`, the one construction path behind every hop.

A queue is attached to a link.  The link calls :meth:`QueueDiscipline.enqueue`
when a packet arrives and :meth:`QueueDiscipline.dequeue` when the link is
ready to transmit the next packet.  Active-queue-management variants live in
:mod:`repro.netsim.aqm` and :mod:`repro.netsim.sfq`.  :func:`build_queue`
turns a queue kind name (one of :data:`QUEUE_KINDS`) or a factory into a
discipline, so a queue kind behaves identically wherever it appears.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Optional, Union

from repro.netsim.packet import Packet


class QueueDiscipline(ABC):
    """Interface implemented by every queueing discipline."""

    def __init__(self) -> None:
        self.drops = 0
        self.enqueues = 0
        self.dequeues = 0
        self.marks = 0

    @abstractmethod
    def enqueue(self, packet: Packet, now: float) -> bool:
        """Offer ``packet`` to the queue at time ``now``.

        Returns ``True`` if the packet was accepted, ``False`` if dropped.
        """

    @abstractmethod
    def dequeue(self, now: float) -> Optional[Packet]:
        """Remove and return the next packet to transmit, or ``None`` if empty."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of packets currently queued."""

    @abstractmethod
    def bytes_queued(self) -> int:
        """Total bytes currently queued."""

    def is_empty(self) -> bool:
        """True when no packet is waiting."""
        return len(self) == 0


class DropTailQueue(QueueDiscipline):
    """FIFO queue with a fixed capacity in packets; arrivals overflow at the tail.

    This is the 1000-packet tail-drop buffer used throughout the paper's
    evaluation topologies.
    """

    def __init__(self, capacity_packets: int = 1000) -> None:
        super().__init__()
        if capacity_packets <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_packets}")
        self.capacity_packets = capacity_packets
        self._queue: deque[Packet] = deque()
        self._bytes = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        if len(self._queue) >= self.capacity_packets:
            self.drops += 1
            return False
        packet.enqueue_time = now
        self._queue.append(packet)
        self._bytes += packet.size_bytes
        self.enqueues += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size_bytes
        self.dequeues += 1
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    def bytes_queued(self) -> int:
        return self._bytes


class InfiniteQueue(DropTailQueue):
    """Unbounded FIFO queue — the 'queue capacity unlimited' design-time model.

    Remy's design-phase network model uses unlimited queues (§5.1); losses are
    then impossible and the objective's delay term is what discourages
    standing queues.
    """

    def __init__(self) -> None:
        super().__init__(capacity_packets=1)
        # Effectively unbounded; chosen large enough that no sane simulation
        # ever reaches it while still being a finite int.
        self.capacity_packets = 10**9


QueueFactory = Callable[[], QueueDiscipline]

#: Built-in queue discipline names a :class:`~repro.netsim.path.LinkSpec` accepts.
QUEUE_KINDS = ("droptail", "infinite", "codel", "sfqcodel", "red", "red-dctcp", "xcp")


def build_queue(
    queue: Union[str, QueueFactory],
    *,
    buffer_packets: int,
    rng: Optional[random.Random] = None,
    codel_target: float = 0.005,
    codel_interval: float = 0.100,
    red_min_thresh: float = 20.0,
    red_max_thresh: float = 60.0,
    dctcp_marking_threshold: float = 65.0,
    red_idle_decay_seconds: float = 0.001,
    xcp_rate_bps: float = 10e6,
    xcp_mean_rtt: float = 0.05,
) -> QueueDiscipline:
    """Instantiate a queue discipline from a kind name (or factory).

    The single construction path behind every hop of every topology
    (:meth:`~repro.netsim.path.LinkSpec.make_queue`), so a queue kind
    behaves identically wherever it appears.
    """
    # The AQM modules build on this one, so they are imported here; XCP's
    # router lives with its protocol (protocols depend on netsim, not the
    # reverse).
    from repro.netsim.aqm import CoDelQueue, REDQueue
    from repro.netsim.sfq import SfqCoDelQueue

    if callable(queue):
        return queue()
    if queue == "droptail":
        return DropTailQueue(capacity_packets=buffer_packets)
    if queue == "infinite":
        return InfiniteQueue()
    if queue == "codel":
        return CoDelQueue(
            capacity_packets=buffer_packets,
            target=codel_target,
            interval=codel_interval,
        )
    if queue == "sfqcodel":
        return SfqCoDelQueue(
            capacity_packets=buffer_packets,
            target=codel_target,
            interval=codel_interval,
        )
    if queue == "red":
        return REDQueue(
            capacity_packets=buffer_packets,
            min_thresh=red_min_thresh,
            max_thresh=red_max_thresh,
            rng=rng,
            idle_decay_seconds=red_idle_decay_seconds,
        )
    if queue == "red-dctcp":
        return REDQueue(
            capacity_packets=buffer_packets,
            min_thresh=dctcp_marking_threshold,
            max_thresh=dctcp_marking_threshold + 1,
            dctcp_mode=True,
            ecn=True,
            rng=rng,
            idle_decay_seconds=red_idle_decay_seconds,
        )
    if queue == "xcp":
        from repro.protocols.xcp import XCPRouterQueue

        return XCPRouterQueue(
            capacity_packets=buffer_packets,
            link_rate_bps=xcp_rate_bps,
            control_interval=max(xcp_mean_rtt, 0.01),
        )
    raise ValueError(f"unknown queue kind {queue!r}; expected one of {QUEUE_KINDS}")
