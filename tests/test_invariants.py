"""Runtime invariant sanitizer (``Simulation(debug_invariants=True)``).

Three contracts:

* a clean simulation passes every check (and actually *runs* them — the
  sampling schedule fires);
* the sanitizer is observationally free: fingerprints are bit-identical
  with the mode on or off (the per-cell version of this lives in the
  scenario-matrix suite; here it is the direct unit check);
* each seeded violation class is caught with a diagnostic naming the
  offending hop/flow — the counted-drop-without-release leak (the PR 3/4
  bug shape), an uncounted drop, negative queue byte accounting (the
  sfqCoDel drift class) and backwards scheduler time.
"""

from __future__ import annotations

import pytest

from repro.netsim.invariants import InvariantChecker, InvariantViolation
from repro.netsim.network import NetworkSpec
from repro.netsim.simulator import Simulation
from repro.protocols.newreno import NewReno
from repro.scenarios import get_scenario, simulation_fingerprint

#: A drop-heavy dumbbell: tiny buffer, aggressive flows — every run takes
#: the tail-drop path many times, which is exactly the path the seeded
#: leak corrupts.
SPEC = NetworkSpec(
    link_rate_bps=2e6, rtt=0.05, n_flows=2, queue="droptail", buffer_packets=8
)


def build_sim(**kwargs) -> Simulation:
    spec = kwargs.pop("spec", SPEC)
    return Simulation(
        spec,
        [NewReno() for _ in range(spec.n_flows)],
        duration=kwargs.pop("duration", 3.0),
        seed=kwargs.pop("seed", 1),
        **kwargs,
    )


class _LeakyQueue:
    """Proxy seeding the PR 3/4 bug: drops counted, ``release()`` forgotten."""

    def __init__(self, inner):
        self._inner = inner

    def enqueue(self, packet, now):
        if len(self._inner) >= 4:
            self._inner.drops += 1  # noqa: PKT001 — the seeded leak under test
            return False
        return self._inner.enqueue(packet, now)

    def __len__(self):
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


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

    def test_sanitizer_implies_debug_pool(self):
        sim = build_sim(debug_invariants=True)
        assert sim.packet_pool is not None
        assert sim.packet_pool.in_use == 0  # debug pool tracks liveness

    def test_clean_run_without_pool_still_checks(self):
        sim = build_sim(debug_invariants=True, use_packet_pool=False)
        sim.run()
        assert sim.invariant_checker.checks_run == sim.invariant_checker.samples + 1

    def test_rejects_nonpositive_sample_count(self):
        with pytest.raises(ValueError, match="samples"):
            InvariantChecker(build_sim(), samples=0)


class TestSeededViolations:
    def test_counted_drop_without_release_is_caught(self):
        # The acceptance-named regression: reintroduce the PR 3/4 leak shape
        # at runtime (count the drop, never release the packet) and the
        # conservation identity must break at a sample.
        # Pinned generic: the fused closures bind the queue
        # object at build time, so a post-construction swap like this one
        # would never see traffic under it.
        sim = build_sim(debug_invariants=True, kernel="generic")
        sim.network.forward_links[0].queue = _LeakyQueue(sim.network.forward_links[0].queue)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "conservation" in message
        assert "invariant sanitizer dump" in message
        assert "hop" in message and "flow 0" in message

    def test_uncounted_drop_is_caught(self):
        # Dual failure mode: the packet is released but the drop never
        # counted — conservation breaks in the other direction.
        # Pinned generic for the same post-construction-patch reason.
        sim = build_sim(debug_invariants=True, kernel="generic")
        queue = sim.network.forward_links[0].queue
        inner_enqueue = queue.enqueue

        def silently_dropping_enqueue(packet, now):
            if len(queue) >= 4:
                packet.release()
                return False
            return inner_enqueue(packet, now)

        queue.enqueue = silently_dropping_enqueue
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
