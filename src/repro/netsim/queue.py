"""Basic queueing disciplines: the abstract interface, DropTail and infinite queues.

A queue is attached to a link.  The link calls :meth:`QueueDiscipline.enqueue`
when a packet arrives and :meth:`QueueDiscipline.dequeue` when the link is
ready to transmit the next packet.  Active-queue-management variants live in
:mod:`repro.netsim.aqm` and :mod:`repro.netsim.sfq`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Optional

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
