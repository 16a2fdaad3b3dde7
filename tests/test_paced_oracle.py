"""An arithmetic oracle for the paced-send path (ROADMAP "independent oracles").

A sender with an unbounded window and a fixed ``intersend_time`` r is a
constant-rate source: one segment (new or retransmitted) at t = 0, r, 2r, …
Into a DropTail bottleneck of capacity C that is a textbook D/D/1/B queue,
so the counts follow from arithmetic alone — no golden of ours is consulted:

* λ = 1.25 C: ⌊T/r⌋ + 1 segments leave the sender; the link is never idle,
  so it serializes ⌊T/s⌋ of them and everything else but at most the buffer
  plus the packet in service is dropped — the delivered fraction is C/λ.
* λ = 0.8 C: every segment finds the link idle — no drops, and every
  queueing-delay sample is exactly 0.

Each case runs under both kernels and under the invariant sanitizer; in
all four the pacing timer re-enters the sender's one closure, which skips
the acknowledgment half and falls into the send loop.
"""

from __future__ import annotations

import math

import pytest

from repro.netsim.network import NetworkSpec
from repro.netsim.sender import AlwaysOnWorkload
from repro.netsim.simulator import Simulation
from repro.protocols.base import CongestionControl

RATE_BPS = 6e6
MSS_BYTES = 1500
BUFFER_PACKETS = 40
SERIALIZATION = MSS_BYTES * 8 / RATE_BPS  # s = 2 ms per segment
DURATION = 10.0005  # off every multiple of r and s, so the floors are unambiguous


class FixedRate(CongestionControl):
    """Never window-limited, never reacts: one segment every ``interval``."""

    name = "fixed-rate"

    def __init__(self, interval: float):
        super().__init__(initial_window=1e9)
        self.interval = interval

    def on_flow_start(self, now: float) -> None:
        self.intersend_time = self.interval

    def on_ack(self, ack) -> None:
        pass

    def on_timeout(self, now: float) -> None:
        pass


def _simulation(load: float, kernel: str, debug_invariants: bool) -> Simulation:
    spec = NetworkSpec(
        link_rate_bps=RATE_BPS, rtt=0.05, n_flows=1,
        queue="droptail", buffer_packets=BUFFER_PACKETS,
    )
    return Simulation(
        spec, [FixedRate(SERIALIZATION / load)], [AlwaysOnWorkload()],
        duration=DURATION, seed=3, kernel=kernel, debug_invariants=debug_invariants,
    )


ENGINES = pytest.mark.parametrize(
    "kernel,debug_invariants",
    [("generic", False), ("auto", False), ("generic", True), ("auto", True)],
    ids=["generic", "auto", "generic-sanitized", "auto-sanitized"],
)


@ENGINES
def test_overload_delivers_capacity_over_offered(kernel, debug_invariants):
    load = 1.25
    result = _simulation(load, kernel, debug_invariants).run()
    stats = result.flow_stats[0]
    sent = math.floor(DURATION / (SERIALIZATION / load)) + 1
    assert stats.packets_sent == sent
    serialized = math.floor(DURATION / SERIALIZATION)
    accepted = sent - result.queue_drops
    assert serialized <= accepted <= serialized + BUFFER_PACKETS + 1
    assert abs(accepted / sent - 1 / load) <= (BUFFER_PACKETS + 1) / sent
    assert stats.retransmissions > 0  # repairs ride the same pacing slots


@ENGINES
def test_underload_never_queues(kernel, debug_invariants):
    load = 0.8
    result = _simulation(load, kernel, debug_invariants).run()
    stats = result.flow_stats[0]
    sent = math.floor(DURATION / (SERIALIZATION / load)) + 1
    assert stats.packets_sent == sent
    assert result.queue_drops == 0
    assert (stats.retransmissions, stats.timeouts, stats.losses_detected) == (0, 0, 0)
    assert stats.queue_delay_count == sent
    assert stats.queue_delay_sum == 0.0 and stats.max_queue_delay == 0.0


@ENGINES
def test_the_pacing_timer_runs_the_senders_one_closure(kernel, debug_invariants):
    sim = _simulation(1.25, kernel, debug_invariants)
    sender = sim.senders[0]
    closure = sender._send
    armed = []
    # Off every pacing instant (multiples of r = 1.6 ms): a timer is armed.
    sim.scheduler.post(1.0003, lambda: armed.append(sender._pacing_event[2]))
    sim.run()
    assert armed == [closure]
    assert closure.__qualname__ == "Sender.connect.<locals>.ack_and_send"
