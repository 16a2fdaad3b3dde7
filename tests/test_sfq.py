"""Unit tests for stochastic fair queueing with CoDel."""

from repro.netsim.packet import Packet
from repro.netsim.sfq import SfqCoDelQueue


def _packet(flow: int, seq: int) -> Packet:
    return Packet(flow_id=flow, seq=seq)


def test_fifo_within_single_flow():
    queue = SfqCoDelQueue(n_queues=8)
    for seq in range(10):
        queue.enqueue(_packet(0, seq), 0.0)
    out = [queue.dequeue(0.0).seq for _ in range(10)]
    assert out == list(range(10))


def test_round_robin_between_flows():
    queue = SfqCoDelQueue(n_queues=64)
    # Flow 0 floods; flow 1 sends a little.
    for seq in range(20):
        queue.enqueue(_packet(0, seq), 0.0)
    for seq in range(3):
        queue.enqueue(_packet(1, seq), 0.0)
    first_six = [queue.dequeue(0.0).flow_id for _ in range(6)]
    # Flow 1's packets should not be stuck behind flow 0's backlog.
    assert first_six.count(1) >= 2


def test_total_capacity_enforced():
    queue = SfqCoDelQueue(n_queues=4, capacity_packets=10)
    accepted = sum(queue.enqueue(_packet(flow % 4, seq), 0.0) for seq, flow in enumerate(range(30)))
    assert accepted == 10
    assert queue.drops == 20
    assert len(queue) == 10


def test_dequeue_empty_returns_none():
    queue = SfqCoDelQueue()
    assert queue.dequeue(0.0) is None


def test_quantum_bytes_validated():
    # A non-positive quantum would spin the grant-and-rotate DRR loop
    # forever; it must be rejected at construction.
    import pytest

    with pytest.raises(ValueError, match="quantum_bytes"):
        SfqCoDelQueue(quantum_bytes=0)


def test_active_queue_count():
    queue = SfqCoDelQueue(n_queues=16)
    queue.enqueue(_packet(1, 0), 0.0)
    queue.enqueue(_packet(2, 0), 0.0)
    assert queue.active_queues == 2
    queue.dequeue(0.0)
    queue.dequeue(0.0)
    assert queue.active_queues == 0


def test_len_consistent_after_mixed_operations():
    queue = SfqCoDelQueue(n_queues=8, capacity_packets=100)
    for seq in range(30):
        queue.enqueue(_packet(seq % 5, seq), now=seq * 0.001)
    removed = 0
    while queue.dequeue(1.0) is not None:
        removed += 1
    assert removed + queue.drops == 30
    assert len(queue) == 0


# ---------------------------------------------------------------------------
# dequeue edge cases (pinned ahead of the planned DRR/bucket optimization)
# ---------------------------------------------------------------------------
class TestDequeueEdgeCases:
    """White-box contracts of ``SfqCoDelQueue.dequeue``'s DRR bookkeeping."""

    def _bucket(self, queue: SfqCoDelQueue, flow: int) -> int:
        return queue._bucket(flow)

    def test_emptied_bucket_is_retired_and_rearmed_on_next_enqueue(self):
        queue = SfqCoDelQueue(n_queues=16)
        bucket0 = self._bucket(queue, 0)
        bucket1 = self._bucket(queue, 1)
        assert bucket0 != bucket1
        queue.enqueue(_packet(0, 0), 0.0)
        queue.enqueue(_packet(1, 0), 0.0)
        queue.enqueue(_packet(1, 1), 0.0)

        # Flow 0's bucket empties on its first service: it must leave the
        # active rotation (not be revisited as an empty head) while flow 1's
        # bucket keeps rotating.
        assert queue.dequeue(0.0).flow_id == 0
        assert list(queue._active) == [bucket1]
        assert queue.dequeue(0.0).flow_id == 1
        assert queue.dequeue(0.0).flow_id == 1
        assert queue.dequeue(0.0) is None
        assert list(queue._active) == []

        # A retired bucket going active again starts from a fresh quantum —
        # no deficit (positive or zero) carries across an idle period.
        queue.enqueue(_packet(0, 1), 1.0)
        assert list(queue._active) == [bucket0]
        assert queue._deficit[bucket0] == queue.quantum_bytes

    def test_quantum_debt_with_undersized_quantum(self):
        # 1000-byte quantum vs 1500-byte packets: a packet may overdraw the
        # deficit by less than its own size; the debt is repaid by the
        # one-quantum-per-visit grant, so the bucket averages exactly one
        # quantum of bytes per round-robin visit (byte-accurate DRR) instead
        # of the pre-fix one-packet-per-visit over-service.
        queue = SfqCoDelQueue(n_queues=8, quantum_bytes=1000)
        bucket = self._bucket(queue, 0)
        for seq in range(4):
            queue.enqueue(_packet(0, seq), 0.0)

        # Service 1: 1000 -> spend 1500 = -500 debt -> rotation grant = 500.
        assert queue.dequeue(0.0).seq == 0
        assert queue._deficit[bucket] == 500
        # Service 2: 500 -> spend 1500 = -1000 -> rotation grant = 0.
        assert queue.dequeue(0.0).seq == 1
        assert queue._deficit[bucket] == 0
        # Service 3: the visit finds the bucket in debt, grants a quantum
        # without serving, rotates, and the next visit (same call) serves.
        assert queue.dequeue(0.0).seq == 2
        assert queue._deficit[bucket] == 500

    def test_rotation_grant_refreshes_nonzero_leftover(self):
        # The pre-fix discipline granted a rotated bucket a new quantum only
        # when its deficit landed on *exactly* zero, so a bucket with a
        # nonzero leftover was starved down to that leftover on every later
        # round.  A rotation must now always carry a fresh grant.
        queue = SfqCoDelQueue(n_queues=8, quantum_bytes=1500)
        bucket = self._bucket(queue, 0)
        # 1000-byte packets leave a 500-byte leftover after the first serve.
        for seq in range(6):
            queue.enqueue(Packet(flow_id=0, seq=seq, size_bytes=1000), 0.0)
        # 1500 deficit serves one 1000-byte packet, leaving 500 (head kept).
        assert queue.dequeue(0.0) is not None
        assert queue._deficit[bucket] == 500
        # The next serve overdraws (500 - 1000 = -500): the rotation grant
        # tops it back up to a full 1000 — not the old "leftover only"
        # starvation, which would have left it at 500 indefinitely.
        assert queue.dequeue(0.0) is not None
        assert queue._deficit[bucket] == -500 + queue.quantum_bytes

    def test_mixed_packet_sizes_get_byte_fair_service(self):
        # A 40-byte-ACK bucket sharing the gateway with a 1500-byte data
        # bucket (the congested-reverse-path topology) must receive roughly
        # one quantum of *bytes* per round, i.e. ~37 ACKs per data packet —
        # not one packet per round.
        queue = SfqCoDelQueue(n_queues=64, quantum_bytes=1500)
        flow_ack, flow_data = 0, 1
        assert queue._bucket(flow_ack) != queue._bucket(flow_data)
        for seq in range(600):
            queue.enqueue(Packet(flow_id=flow_ack, seq=seq, size_bytes=40), 0.0)
        for seq in range(20):
            queue.enqueue(Packet(flow_id=flow_data, seq=seq, size_bytes=1500), 0.0)

        bytes_served = {flow_ack: 0, flow_data: 0}
        for _ in range(200):
            packet = queue.dequeue(0.0)
            if packet is None:
                break
            bytes_served[packet.flow_id] += packet.size_bytes
        assert bytes_served[flow_data] > 0
        ratio = bytes_served[flow_ack] / bytes_served[flow_data]
        # Byte-fair DRR keeps the byte split near 1:1; the pre-fix
        # packet-per-visit rotation pinned it near 40:1500 ≈ 0.027.
        assert 0.5 < ratio < 2.0

    def test_codel_in_dequeue_drops_are_counted(self):
        # Packets CoDel drops from *inside* dequeue are counted as drops, and
        # the shared totals track what the sub-queue consumed.
        queue = SfqCoDelQueue(n_queues=8, target=0.005, interval=0.1)
        n_packets = 12
        for seq in range(n_packets):
            queue.enqueue(Packet(0, seq, size_bytes=1500), now=0.0)

        delivered = []
        now = 1.0
        while True:
            packet = queue.dequeue(now)
            if packet is None:
                break
            delivered.append(packet.seq)
            now += 0.05  # stay far above target so CoDel keeps dropping

        assert queue.drops > 0, "the in-dequeue drop path never fired"
        assert len(delivered) + queue.drops == n_packets
        assert queue.drops == queue._queues[queue._bucket(0)].drops
        assert delivered == sorted(delivered)  # survivors leave in order
        assert len(queue) == 0
        assert queue.bytes_queued() == 0

    def test_stale_active_bucket_is_skipped_and_retired(self):
        # The DRR loop's rounds bound exists to survive a rotation entry
        # whose sub-queue is (unexpectedly) empty.  That defensive path must
        # retire the stale bucket — pop it, zero its deficit — and still hand
        # out the next bucket's packet in the same call.
        queue = SfqCoDelQueue(n_queues=16)
        ghost = self._bucket(queue, 2)
        queue.enqueue(_packet(1, 0), 0.0)
        queue._active.insert(0, ghost)
        queue._deficit[ghost] = 4444

        packet = queue.dequeue(0.0)
        assert packet is not None and packet.flow_id == 1
        assert ghost not in queue._active
        assert queue._deficit[ghost] == 0
