"""Runtime invariant sanitizer (``Simulation(debug_invariants=True)``).

Three contracts:

* a clean simulation passes every check (and actually *runs* them — the
  sampling schedule fires);
* the sanitizer is observationally free: fingerprints are bit-identical
  with the mode on or off (the per-cell version of this lives in the
  scenario-matrix suite; here it is the direct unit check);
* each seeded violation class is caught with a diagnostic naming the
  offending hop/flow — a packet queued twice, an uncounted drop, negative
  queue byte accounting (the sfqCoDel drift class) and backwards scheduler
  time.

Conservation is checked against a census of where packets sit (queues,
heap entries, lane entries), so it holds exactly at every sample and on
every drop path.
"""

from __future__ import annotations

import pytest

from repro.netsim.invariants import InvariantChecker, InvariantViolation
from repro.netsim.path import PathSpec
from repro.netsim.queue import DropTailQueue
from repro.netsim.simulator import Simulation
from repro.protocols.newreno import NewReno
from repro.scenarios import get_scenario, simulation_fingerprint
from repro.traffic.onoff import ByteFlowWorkload, FixedOnPeriodWorkload

#: A drop-heavy dumbbell: tiny buffer, aggressive flows — every run takes
#: the tail-drop path many times, which is exactly the path the seeded
#: faults corrupt.
SPEC = PathSpec.dumbbell(
    rate_bps=2e6, rtt=0.05, n_flows=2, queue="droptail", buffer_packets=8
)
DURATION = 3.0


def build_sim(sim_class=Simulation, **kwargs) -> Simulation:
    spec = kwargs.pop("spec", SPEC)
    return sim_class(
        spec,
        [NewReno() for _ in range(spec.n_flows)],
        duration=kwargs.pop("duration", DURATION),
        seed=kwargs.pop("seed", 1),
        **kwargs,
    )


class _DuplicatingQueue(DropTailQueue):
    """Enqueues one packet twice, in the run's last 10 ms: sent once, held
    twice until the final sample (a copy needs a serialization plus a
    one-way delay to reach the receiver)."""

    def __init__(self):
        super().__init__(capacity_packets=SPEC.forward[0].buffer_packets)
        self.duplicated = False

    def enqueue(self, packet, now):
        if not super().enqueue(packet, now):
            return False
        if now >= DURATION - 0.01 and not self.duplicated:
            self.duplicated = super().enqueue(packet, now)
        return True


class _SilentlyDroppingQueue(DropTailQueue):
    """Drops the packet and never counts the drop."""

    def __init__(self):
        super().__init__(capacity_packets=SPEC.forward[0].buffer_packets)

    def enqueue(self, packet, now):
        if len(self) >= 4:
            return False
        return super().enqueue(packet, now)


class TestCleanRuns:
    def test_clean_run_passes_and_samples(self):
        sim = build_sim(debug_invariants=True)
        sim.run()
        checker = sim.invariant_checker
        assert checker is not None
        # All mid-run samples plus the completion check actually executed.
        assert checker.checks_run == checker.samples + 1
        assert checker.acks_consumed > 0
        assert checker.data_arrivals > 0

    def test_sanitizer_is_fingerprint_neutral(self):
        baseline = simulation_fingerprint(build_sim().run())
        sanitized = simulation_fingerprint(build_sim(debug_invariants=True).run())
        assert sanitized == baseline

    def test_sanitizer_neutral_on_path_topology_cell(self):
        cell = get_scenario("reverse-ack-congestion")
        assert simulation_fingerprint(
            cell.run(debug_invariants=True)
        ) == simulation_fingerprint(cell.run())

    def test_events_processed_excludes_sampler_events(self):
        plain = build_sim().run()
        sanitized = build_sim(debug_invariants=True).run()
        assert sanitized.events_processed == plain.events_processed

    def test_the_dump_counts_the_events_run_so_far(self):
        # A mid-run dump used to print the count reconciled at the last
        # return of the dispatch loop, minus every uncounted sample so far.
        spec = PathSpec.dumbbell(rate_bps=4e6, rtt=0.1, n_flows=2)
        sim = Simulation(spec, [NewReno(), NewReno()], duration=3.0, seed=1, debug_invariants=True)
        checker = sim.invariant_checker
        dumps = []
        check_now = checker.check_now

        def check_and_dump():
            check_now()
            dumps.append((sim.scheduler.now, checker._dump()))

        checker.check_now = check_and_dump
        sim.run()
        now, dump = dumps[len(dumps) // 2 - 1]
        assert now == 1.5
        [events] = [int(field[len("events="):].rstrip(",")) for field in dump.split() if field.startswith("events=")]
        prefix = Simulation(spec, [NewReno(), NewReno()], duration=1.5, seed=1).run()
        assert events == prefix.events_processed > 0

    @pytest.mark.parametrize("queue", ["droptail", "codel", "sfqcodel", "red"])
    def test_every_drop_path_balances(self, queue):
        # Tail overflow, RED early drop and CoDel's in-dequeue head drop all
        # fire; the census balances after every one of them.
        spec = PathSpec.dumbbell(rate_bps=6e6, rtt=0.05, n_flows=3, queue=queue, buffer_packets=25)
        workloads = [
            ByteFlowWorkload.exponential(mean_flow_bytes=80e3, mean_off_seconds=0.2)
            for _ in range(3)
        ]
        sim = build_sim(spec=spec, workloads=workloads, seed=13, debug_invariants=True)
        result = sim.run()
        assert result.queue_drops > 0
        assert sim.invariant_checker.checks_run == sim.invariant_checker.samples + 1

    def test_a_drained_run_holds_nothing(self):
        # Two seconds on through a tiny buffer, then silence: once the network
        # drains, every packet sent was dropped or acknowledged (the ACKs of
        # the last flight reach a switched-off sender, which drops them).
        spec = PathSpec.dumbbell(rate_bps=8e6, rtt=0.04, n_flows=3, queue="droptail", buffer_packets=12)
        workloads = [FixedOnPeriodWorkload(start=0.0, duration=2.0) for _ in range(3)]
        sim = build_sim(spec=spec, workloads=workloads, duration=4.0, seed=5, debug_invariants=True)
        result = sim.run()
        checker = sim.invariant_checker
        assert result.total_bytes_received() > 0 and result.queue_drops > 0
        assert checker.held == 0
        sent = sum(stats.packets_sent for stats in result.flow_stats)
        assert sent == result.queue_drops + checker.acks_consumed

    def test_rejects_nonpositive_sample_count(self):
        with pytest.raises(ValueError, match="samples"):
            InvariantChecker(build_sim(), samples=0)


class TestSeededViolations:
    # The faulty queues come in through the spec's queue factory, so each
    # case runs the one engine with the lane and on the heap only.
    @pytest.mark.parametrize("kernel", ["auto", "generic"])
    def test_duplicated_packet_is_caught(self, sim_class):
        # One packet held in two places: the census counts it twice against
        # one send, and the identity breaks (on the lane under "auto", on
        # the heap under "generic").
        sim = build_sim(
            sim_class, spec=SPEC.with_hops(queue=_DuplicatingQueue), debug_invariants=True
        )
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert sim.network.forward_links[0].queue.duplicated
        message = str(excinfo.value)
        assert "conservation" in message and "held=" in message
        assert "invariant sanitizer dump" in message
        assert "hop" in message and "flow 0" in message

    @pytest.mark.parametrize("kernel", ["auto", "generic"])
    def test_uncounted_drop_is_caught(self, sim_class):
        # Dual failure mode: the packet vanishes but the drop is never
        # counted — conservation breaks in the other direction.
        sim = build_sim(
            sim_class, spec=SPEC.with_hops(queue=_SilentlyDroppingQueue), debug_invariants=True
        )
        with pytest.raises(InvariantViolation, match="conservation"):
            sim.run()

    def test_negative_queue_bytes_is_caught(self):
        sim = build_sim(debug_invariants=True)
        checker = sim.invariant_checker
        checker.check_now()  # pristine state passes
        sim.network.forward_links[0].queue._bytes = -1500
        with pytest.raises(InvariantViolation, match="negative|drift|accumulator"):
            checker.check_now()

    def test_backwards_clock_is_caught(self):
        sim = build_sim(debug_invariants=True)
        checker = sim.invariant_checker
        checker.check_now()
        checker._last_now = 10.0  # as if a sample had run at t=10
        with pytest.raises(InvariantViolation, match="moved backwards"):
            checker.check_now()

    def test_diagnostic_dump_names_every_hop_and_flow(self):
        sim = build_sim(debug_invariants=True)
        sim.run()
        dump = sim.invariant_checker._dump()
        assert "hop 'bottleneck'" in dump or "hop" in dump
        for flow_id in range(SPEC.n_flows):
            assert f"flow {flow_id}:" in dump
