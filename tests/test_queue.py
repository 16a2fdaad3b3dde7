"""Unit tests for DropTail queues, limited and unlimited."""

import pytest

from repro.netsim.packet import Packet
from repro.netsim.queue import DropTailQueue


def _packet(seq: int, flow: int = 0) -> Packet:
    return Packet(flow_id=flow, seq=seq)


def test_fifo_order():
    queue = DropTailQueue(capacity_packets=10)
    for seq in range(5):
        assert queue.enqueue(_packet(seq), now=0.0)
    out = [queue.dequeue(1.0).seq for _ in range(5)]
    assert out == list(range(5))
    assert queue.dequeue(2.0) is None


def test_tail_drop_on_overflow():
    queue = DropTailQueue(capacity_packets=3)
    accepted = [queue.enqueue(_packet(seq), 0.0) for seq in range(5)]
    assert accepted == [True, True, True, False, False]
    assert queue.drops == 2
    assert len(queue) == 3
    # The packets that survived are the earliest ones (tail drop).
    assert queue.dequeue(0.0).seq == 0


def test_bytes_queued_tracks_sizes():
    queue = DropTailQueue(capacity_packets=10)
    queue.enqueue(Packet(0, 0, size_bytes=1500), 0.0)
    queue.enqueue(Packet(0, 1, size_bytes=40), 0.0)
    assert queue.bytes_queued() == 1540
    queue.dequeue(0.0)
    assert queue.bytes_queued() == 40


def test_enqueue_time_is_stamped():
    queue = DropTailQueue()
    packet = _packet(0)
    queue.enqueue(packet, now=3.5)
    assert packet.enqueue_time == 3.5


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        DropTailQueue(capacity_packets=0)


def test_infinite_queue_never_drops():
    queue = DropTailQueue(capacity_packets=None)
    for seq in range(5000):
        assert queue.enqueue(_packet(seq), 0.0)
    assert queue.drops == 0
    assert len(queue) == 5000


def test_counters():
    queue = DropTailQueue(capacity_packets=2)
    queue.enqueue(_packet(0), 0.0)
    queue.enqueue(_packet(1), 0.0)
    queue.enqueue(_packet(2), 0.0)
    queue.dequeue(0.0)
    assert queue.enqueues == 2
    assert queue.dequeues == 1
    assert queue.drops == 1
    assert not queue.is_empty()
