"""Active queue management: RED (with the DCTCP marking variant) and CoDel.

These routers are needed only by the baselines the paper compares against:

* DCTCP (§5.5) runs over an ECN-enabled RED gateway configured to mark when
  the *instantaneous* queue exceeds a threshold K.
* Cubic-over-sfqCoDel (§5) runs CoDel inside stochastic fair queueing; the
  single-queue CoDel implemented here is reused by
  :class:`repro.netsim.sfq.SfqCoDelQueue`.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Optional

from repro.netsim.packet import Packet
from repro.netsim.queue import QueueDiscipline


class REDQueue(QueueDiscipline):
    """Random Early Detection gateway (Floyd & Jacobson 1993).

    Two operating modes:

    * classic RED: marks/drops with probability rising linearly between
      ``min_thresh`` and ``max_thresh`` on the EWMA of queue length;
    * DCTCP mode (``dctcp_mode=True``): marks every packet whose arrival finds
      the *instantaneous* queue above ``min_thresh`` (the single-threshold
      marking DCTCP requires), never probabilistically.

    When ``ecn=True`` packets from ECN-capable flows are marked instead of
    dropped; non-ECN packets are dropped.

    Idle decay follows Floyd & Jacobson §4: while the queue sits empty the
    average is decayed as if ``m`` small packets had been transmitted, with
    ``m`` the idle time divided by ``idle_decay_seconds`` (the typical packet
    transmission time — :meth:`LinkSpec.make_queue` passes one MSS at the
    link rate).  The decay is applied lazily, at the next arrival to an empty
    queue, so it is a function of *elapsed time* rather than of how often the
    link happened to poll an empty queue.
    """

    def __init__(
        self,
        capacity_packets: int = 1000,
        min_thresh: float = 20.0,
        max_thresh: float = 60.0,
        max_p: float = 0.1,
        weight: float = 0.002,
        ecn: bool = True,
        dctcp_mode: bool = False,
        rng: Optional[random.Random] = None,
        idle_decay_seconds: float = 0.001,
    ) -> None:
        super().__init__()
        if capacity_packets <= 0:
            raise ValueError("capacity must be positive")
        if min_thresh < 0 or max_thresh <= min_thresh:
            raise ValueError("need 0 <= min_thresh < max_thresh")
        if idle_decay_seconds <= 0:
            raise ValueError("idle_decay_seconds must be positive")
        self.capacity_packets = capacity_packets
        self.min_thresh = min_thresh
        self.max_thresh = max_thresh
        self.max_p = max_p
        self.weight = weight
        self.ecn = ecn
        self.dctcp_mode = dctcp_mode
        self.idle_decay_seconds = idle_decay_seconds
        self._rng = rng if rng is not None else random.Random(0)
        self._queue: deque[Packet] = deque()
        self._bytes = 0
        self._avg = 0.0
        #: Start of the yet-undecayed idle span.  Consulted only while the
        #: queue is empty; advanced to ``now`` whenever decay is applied (the
        #: decay composes multiplicatively, so an idle span may be consumed
        #: in several increments — e.g. across arrivals that are themselves
        #: early-dropped and leave the queue idle) and rewound by ``dequeue``
        #: when the queue drains.
        self._idle_since = 0.0
        self._count_since_mark = -1

    def _mark_or_drop(self, packet: Packet, now: float) -> bool:
        """Mark the packet (returns True = keep) or signal a drop (False)."""
        if self.ecn and packet.ecn_capable:
            packet.ecn_marked = True
            self.marks += 1
            return True
        self.drops += 1
        return False

    def _red_probability(self) -> float:
        if self._avg < self.min_thresh:
            return 0.0
        if self._avg >= self.max_thresh:
            return 1.0
        return self.max_p * (self._avg - self.min_thresh) / (self.max_thresh - self.min_thresh)

    def enqueue(self, packet: Packet, now: float) -> bool:
        if len(self._queue) >= self.capacity_packets:
            self.drops += 1
            return False

        instantaneous = len(self._queue)
        if instantaneous:
            self._avg = (1 - self.weight) * self._avg + self.weight * instantaneous
        elif now > self._idle_since:
            # Arrival to an empty queue: decay the average for the idle span
            # (Floyd & Jacobson's "m small packets"), not by one EWMA step
            # per call the link happened to make while idle.  Advance the
            # idle mark so the span is never decayed twice — and so that if
            # THIS packet is dropped below (leaving the queue still idle),
            # the next arrival keeps decaying from here instead of losing
            # the idle clock entirely.
            m = (now - self._idle_since) / self.idle_decay_seconds
            self._avg *= (1.0 - self.weight) ** m
            self._idle_since = now

        congested = False
        if self.dctcp_mode:
            congested = instantaneous >= self.min_thresh
        else:
            prob = self._red_probability()
            if prob >= 1.0:
                congested = True
            elif prob > 0.0:
                self._count_since_mark += 1
                # Uniform marking interval per the RED paper.
                denom = max(1e-9, 1.0 - self._count_since_mark * prob)
                effective = min(1.0, prob / denom)
                if self._rng.random() < effective:
                    congested = True
                    self._count_since_mark = 0
            else:
                self._count_since_mark = -1

        if congested and not self._mark_or_drop(packet, now):
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
        if not self._queue:
            self._idle_since = now
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    def bytes_queued(self) -> int:
        return self._bytes


class CoDelQueue(QueueDiscipline):
    """Controlled-Delay AQM (Nichols & Jacobson, 2012).

    CoDel tracks the per-packet sojourn time.  When every packet over an
    ``interval`` (default 100 ms) experienced at least ``target`` (5 ms) of
    queueing delay, CoDel enters a dropping state and drops head packets at
    intervals shrinking with the square root of the drop count.
    """

    def __init__(
        self,
        capacity_packets: int = 1000,
        target: float = 0.005,
        interval: float = 0.100,
        ecn: bool = False,
    ) -> None:
        super().__init__()
        if capacity_packets <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_packets = capacity_packets
        self.target = target
        self.interval = interval
        self.ecn = ecn
        self._queue: deque[Packet] = deque()
        self._bytes = 0
        # CoDel state machine.
        self._first_above_time = 0.0
        self._drop_next = 0.0
        self._drop_count = 0
        self._last_drop_count = 0
        self._dropping = False

    # -- helpers -----------------------------------------------------------
    def _control_law(self, t: float, count: int) -> float:
        return t + self.interval / math.sqrt(max(count, 1))

    def _should_drop(self, packet: Packet, now: float) -> bool:
        """Sojourn-time test from the CoDel pseudocode ("dodequeue")."""
        sojourn = now - packet.enqueue_time
        if sojourn < self.target or len(self._queue) == 0:
            self._first_above_time = 0.0
            return False
        if self._first_above_time == 0.0:
            self._first_above_time = now + self.interval
            return False
        return now >= self._first_above_time

    def _pop(self) -> Packet:
        packet = self._queue.popleft()
        self._bytes -= packet.size_bytes
        return packet

    # -- QueueDiscipline interface -----------------------------------------
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
        fifo = self._queue
        if not fifo:
            self._dropping = False
            return None

        # _pop and _should_drop, inlined for the head packet: the common
        # dequeue (below target, not dropping) is one frame, not three.
        packet = fifo.popleft()
        self._bytes -= packet.size_bytes
        if now - packet.enqueue_time < self.target or not fifo:
            self._first_above_time = 0.0
            drop_now = False
        elif self._first_above_time == 0.0:
            self._first_above_time = now + self.interval
            drop_now = False
        else:
            drop_now = now >= self._first_above_time

        if self._dropping:
            if not drop_now:
                self._dropping = False
            else:
                while self._dropping and now >= self._drop_next:
                    if self.ecn and packet.ecn_capable:
                        packet.ecn_marked = True
                        self.marks += 1
                        self._drop_count += 1
                        self._drop_next = self._control_law(self._drop_next, self._drop_count)
                        break
                    self.drops += 1
                    self._drop_count += 1
                    if not self._queue:
                        self._dropping = False
                        self.dequeues += 1
                        return None if drop_now else packet
                    packet = self._pop()
                    drop_now = self._should_drop(packet, now)
                    if not drop_now:
                        self._dropping = False
                    else:
                        self._drop_next = self._control_law(self._drop_next, self._drop_count)
        elif drop_now:
            # Enter the dropping state: drop (or mark) this packet.
            if self.ecn and packet.ecn_capable:
                packet.ecn_marked = True
                self.marks += 1
            else:
                self.drops += 1
                if not self._queue:
                    self._dropping = False
                    return None
                packet = self._pop()
            self._dropping = True
            delta = self._drop_count - self._last_drop_count
            if delta > 1 and now - self._drop_next < 8 * self.interval:
                self._drop_count = delta
            else:
                self._drop_count = 1
            self._drop_next = self._control_law(now, self._drop_count)
            self._last_drop_count = self._drop_count

        self.dequeues += 1
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    def bytes_queued(self) -> int:
        return self._bytes
