"""Stochastic fair queueing with per-queue CoDel ("sfqCoDel").

The paper's strongest in-network baseline runs TCP Cubic through a gateway
that hashes each flow into one of many queues (McKenney's stochastic fairness
queueing) and applies CoDel to each queue independently, serving the queues
in a deficit-round-robin fashion.  This module implements that discipline on
top of :class:`repro.netsim.aqm.CoDelQueue`.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.netsim.aqm import CoDelQueue
from repro.netsim.packet import Packet
from repro.netsim.queue import QueueDiscipline


class SfqCoDelQueue(QueueDiscipline):
    """Stochastic fair queueing with CoDel on every sub-queue.

    Parameters
    ----------
    n_queues:
        Number of hash buckets (sfqcodel's default is 1024; a smaller value
        is fine for the handful of flows in these experiments).
    capacity_packets:
        Total buffer shared by all sub-queues.
    quantum_bytes:
        Deficit-round-robin quantum; one MTU gives per-flow fairness in
        packets per round.
    target, interval:
        CoDel parameters applied to each sub-queue.

    Deficit round robin follows the fq_codel shape: a bucket arriving at the
    head of the rotation with a spent deficit is granted **one quantum per
    round-robin visit** and rotated to the tail; a bucket with deficit left
    keeps the head and is served, its deficit going (possibly negative, by
    less than one packet) until the next visit's grant repays it.  This is
    what makes mixed packet sizes — 40-byte ACKs sharing a path-reverse
    gateway with 1500-byte data, the case multi-hop topologies introduce —
    byte-fair: a small-packet bucket banks its unspent grant instead of being
    starved down to its leftover.  With uniform-MTU packets and the default
    one-MTU quantum every visit serves exactly one packet, so single-MTU
    scenarios are bit-identical to the pre-fix discipline (pinned by the
    golden matrix).

    The rotation is a ``deque`` with per-bucket membership flags: the
    previous list-based rotation paid an O(active) ``pop(0)`` per served
    packet and an O(active) ``bucket not in active`` scan per enqueue — the
    flattest remaining sfqCoDel cost flagged by the PR 3 profile.
    """

    def __init__(
        self,
        n_queues: int = 64,
        capacity_packets: int = 1000,
        quantum_bytes: int = 1500,
        target: float = 0.005,
        interval: float = 0.100,
    ) -> None:
        super().__init__()
        if n_queues <= 0:
            raise ValueError("n_queues must be positive")
        if capacity_packets <= 0:
            raise ValueError("capacity must be positive")
        if quantum_bytes <= 0:
            # Also load-bearing for the DRR loop below: a non-positive
            # quantum would make the grant-and-rotate visit spin forever.
            raise ValueError("quantum_bytes must be positive")
        self.n_queues = n_queues
        self.capacity_packets = capacity_packets
        self.quantum_bytes = quantum_bytes
        self._queues = [
            CoDelQueue(capacity_packets=capacity_packets, target=target, interval=interval)
            for _ in range(n_queues)
        ]
        # Deficit-round-robin rotation: bucket indices awaiting service, with
        # O(1) membership flags (a bucket may linger in the rotation briefly
        # after draining; it is retired at its next visit).
        self._active: deque[int] = deque()
        self._in_active = bytearray(n_queues)
        self._deficit = [0] * n_queues
        self._total_packets = 0
        self._total_bytes = 0

    def _bucket(self, flow_id: int) -> int:
        # A fixed multiplicative hash keeps bucket assignment deterministic
        # across runs (important for reproducible experiments) while still
        # spreading consecutive flow ids over the buckets.
        return (flow_id * 2654435761) % self.n_queues

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self._total_packets >= self.capacity_packets:
            self.drops += 1
            return False
        bucket = self._bucket(packet.flow_id)
        queue = self._queues[bucket]
        # Sub-queue occupancy is read off its deque (here and in dequeue):
        # ``len(queue)`` and ``bytes_queued()`` are Python frames, six per packet.
        fifo = queue._queue
        was_empty = not fifo
        # The sub-queue's ``enqueue``, inlined.  It cannot overflow: it holds
        # at most the shared total, which is below its (equal) capacity.
        packet.enqueue_time = now
        fifo.append(packet)
        queue._bytes += packet.size_bytes
        queue.enqueues += 1
        self._total_packets += 1
        self._total_bytes += packet.size_bytes
        if was_empty and not self._in_active[bucket]:
            self._active.append(bucket)
            self._in_active[bucket] = True
            self._deficit[bucket] = self.quantum_bytes
        self.enqueues += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        # Deficit round robin over the rotation; CoDel may drop packets
        # while we service a bucket, so recompute totals from what it
        # returns.  The loop terminates: an empty head bucket retires
        # (rotation shrinks), an indebted head bucket's deficit strictly
        # grows by one quantum per visit (so it serves within
        # ⌈size/quantum⌉ visits), and a served packet returns.
        active = self._active
        deficits = self._deficit
        quantum = self.quantum_bytes
        while active:
            bucket = active[0]
            queue = self._queues[bucket]
            fifo = queue._queue
            if not fifo:
                # Defensive: a rotation entry whose sub-queue is
                # (unexpectedly) empty — retire it.  Served buckets retire
                # the moment they drain, so this never fires in the normal
                # rotation.
                active.popleft()
                self._in_active[bucket] = False
                deficits[bucket] = 0
                continue
            if deficits[bucket] <= 0:
                # A visit that finds the bucket still in debt (its last
                # packet overdrew the deficit): grant this round's quantum
                # and rotate without serving — byte-accurate DRR for packets
                # larger than the quantum.
                deficits[bucket] += quantum
                active.rotate(-1)
                continue
            before = len(fifo)
            before_bytes = queue._bytes
            packet = queue.dequeue(now)
            consumed = before - len(fifo) - (1 if packet is not None else 0)
            # ``consumed`` counts packets CoDel dropped internally; the shared
            # byte total must shed what the sub-queue shed (minus the packet
            # being returned, which is accounted below).
            if consumed > 0:
                self._total_packets -= consumed
                self._total_bytes -= (
                    before_bytes
                    - queue._bytes
                    - (packet.size_bytes if packet is not None else 0)
                )
                self.drops += consumed
            if packet is None:
                # CoDel drained the bucket during service: retire it.
                active.popleft()
                self._in_active[bucket] = False
                deficits[bucket] = 0
                continue
            self._total_packets -= 1
            self._total_bytes -= packet.size_bytes
            deficit = deficits[bucket] - packet.size_bytes
            if not fifo:
                # Drained by its own service: retire immediately so a
                # re-activation rejoins at the tail of the rotation.
                active.popleft()
                self._in_active[bucket] = False
                deficits[bucket] = 0
            elif deficit <= 0:
                # Deficit spent (possibly overdrawn by less than one
                # packet): the round-robin visit ends — grant the next
                # round's quantum and rotate to the tail.  Granting on
                # *every* rotation (not only when the deficit lands on
                # exactly zero) is what keeps mixed-packet-size buckets —
                # 40-byte ACKs on a congested reverse path — from being
                # starved down to their leftover deficit.
                deficits[bucket] = deficit + quantum
                active.popleft()
                active.append(bucket)
            else:
                # Deficit remains: the bucket keeps the head and is served
                # again next call — quantum bytes per round-robin visit,
                # not one packet per visit.
                deficits[bucket] = deficit
            self.dequeues += 1
            return packet
        return None

    def __len__(self) -> int:
        return self._total_packets

    def bytes_queued(self) -> int:
        return max(0, self._total_bytes)

    @property
    def active_queues(self) -> int:
        """Number of hash buckets currently holding packets."""
        return sum(1 for q in self._queues if len(q) > 0)
