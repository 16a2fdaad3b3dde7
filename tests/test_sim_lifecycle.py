"""A simulation frees itself (README "Performance").

One lifecycle — build, run once, read — and one invariant: a finished
simulation holds data, not wiring.  ``Simulation.run()`` ends by emptying the
scheduler and cutting every callback between endpoints, hops and their
closures, so dropping the object frees it by reference count alone; counted
here exactly, with the cyclic collector off: build, run, ``del``,
``gc.collect() == 0``.  ``run_sim_job`` pauses the collector from the build
to the drop (``gc_paused``), so a batch of jobs hands it nothing to find.

Gating as in ``tests/test_scenario_matrix.py``: the smoke cells by default,
every registered cell under ``SCENARIO_MATRIX=full``.
"""

from __future__ import annotations

import gc
import math
import os
import weakref

import pytest

from repro.core.action import Action
from repro.core.config import general_purpose_range
from repro.core.evaluator import Evaluator, EvaluatorSettings
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.events import EventScheduler, SimulationError
from repro.netsim.kernel import unwired
from repro.netsim.path import LinkSpec, PathSpec
from repro.netsim.sender import Workload
from repro.netsim.simulator import Simulation, gc_paused
from repro.protocols import PROTOCOLS, NewReno
from repro.runner import SerialBackend, SimJob
from repro.runner.jobs import run_sim_job
from repro.scenarios import ProtocolSpec, get_scenario, scenario_names, smoke_scenarios
from repro.traces.cellular import verizon_lte_trace

FULL_MATRIX = os.environ.get("SCENARIO_MATRIX", "").lower() in {"full", "all", "1"}
SMOKE_CELLS = {spec.name for spec in smoke_scenarios()}

#: ``tests/test_seal.py``'s runaway rule: it drowns an unlimited queue.
RUNAWAY = Action(window_multiple=1.01, window_increment=2.0, intersend_ms=0.002)

DUMBBELL = PathSpec.dumbbell(rate_bps=4e6, rtt=0.1, n_flows=2, queue="droptail", buffer_packets=50)
TWO_HOP = PathSpec(
    forward=(LinkSpec(rate_bps=6e6, delay=0.005), LinkSpec(rate_bps=4e6, queue="codel")),
    reverse=(LinkSpec(rate_bps=1e6, buffer_packets=30),),
    rtt=0.08,
    n_flows=2,
)
LOSSY = PathSpec(forward=(LinkSpec(rate_bps=4e6, loss_rate=0.05),), rtt=0.08, n_flows=2)
TRACE = PathSpec(
    forward=(LinkSpec(delivery_trace=verizon_lte_trace(duration_seconds=4.0, seed=3)),),
    rtt=0.05,
    n_flows=2,
)


def leftovers(life) -> int:
    """What the collector finds once everything ``life()`` made is dropped,
    the collector having been off since before the build."""
    gc.collect()
    with gc_paused():
        life()
        return gc.collect()


def build(spec, sim_class=Simulation, **options) -> Simulation:
    protocols = [NewReno() for _ in range(spec.n_flows)]
    return sim_class(spec, protocols, duration=2.0, seed=5, **options)


def design_jobs(count: int, action: Action = Action.default()) -> list[SimJob]:
    """Design specimens as the evaluator makes them (``Evaluator._job_for``)."""
    evaluator = Evaluator(
        general_purpose_range(), settings=EvaluatorSettings(num_specimens=count, sim_duration=2.0)
    )
    tree = WhiskerTree(default_action=action)
    return [
        evaluator._job_for(tree, specimen, index, training=True, job_id=index)
        for index, specimen in enumerate(evaluator.specimens)
    ]


# ---------------------------------------------------------------------------
# The invariant: nothing left for the collector
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cell_name", scenario_names())
def test_a_finished_cell_leaves_the_collector_nothing(cell_name, heap_only):
    if not FULL_MATRIX and cell_name not in SMOKE_CELLS:
        pytest.skip(f"{cell_name} runs in the full matrix only (set SCENARIO_MATRIX=full)")
    cell = get_scenario(cell_name)
    # Warm once: a first import leaves dataclass(slots=True)'s discarded
    # classes behind, none of them the simulation's.
    cell.run()
    assert leftovers(lambda: cell.build().run()) == 0
    assert leftovers(lambda: heap_only.of(cell).run()) == 0, "heap only"


@pytest.mark.parametrize("kernel", ["auto", "generic"])
def test_a_sealed_design_specimen(sim_class):
    [job] = design_jobs(1, RUNAWAY)

    def life():
        sim = sim_class(
            job.spec, job.build_protocols(), list(job.workloads),
            duration=job.duration, seed=job.seed,
        )
        assert sim.run().sealed_at is not None

    life()
    assert leftovers(life) == 0
    assert leftovers(lambda: run_sim_job(job)) == 0  # the way every backend runs it


@pytest.mark.parametrize("kernel", ["auto", "generic"])
class TestCasesTheMatrixDoesNotReach:
    def test_a_run_truncated_by_max_events(self, sim_class):
        cap = build(DUMBBELL, sim_class).run().events_processed // 2
        assert build(DUMBBELL, sim_class, max_events=cap).run().truncated
        assert leftovers(lambda: build(DUMBBELL, sim_class, max_events=cap).run()) == 0

    @pytest.mark.parametrize("spec", [TWO_HOP, LOSSY, TRACE], ids=["two-hop", "lossy-gate", "trace"])
    def test_paths_gates_and_trace_links(self, sim_class, spec):
        assert build(spec, sim_class).run().total_bytes_received() > 0
        assert leftovers(lambda: build(spec, sim_class).run()) == 0


#: ``kernel`` and the cell (``None``: ``DUMBBELL``) of each truncation case:
#: the eager dumbbell on every engine, and a production cell whose CoDel hop
#: keeps the event path.
TRUNCATED = {
    "auto": ("auto", None),
    "generic": ("generic", None),
    "event-path": ("event-path", None),
    "codel-cell": ("auto", "bench-newreno-codel"),
}


def truncation_case(sim_class, cell_name, duration, **options) -> Simulation:
    if cell_name is None:
        return sim_class(DUMBBELL, [NewReno(), NewReno()], duration=duration, seed=5, **options)
    cell = get_scenario(cell_name)
    return sim_class(
        cell.network, cell.make_protocols(), cell.make_workloads(),
        duration=duration, seed=cell.seed, **options,
    )


@pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
@pytest.mark.parametrize(("kernel", "cell_name"), list(TRUNCATED.values()), ids=list(TRUNCATED))
def test_a_truncated_run_counts_nothing_after_its_stop(sim_class, cell_name, fraction):
    """A run cut by ``max_events`` must count exactly what an uncapped run
    ending at the instant it stopped counts.  The eager hop accounts arrivals
    and waits at enqueue, ahead of their time, and settles them at the stop;
    on the event path the cap may fall between two events of one instant,
    an arrival among them, and the run finishes that instant."""
    events = truncation_case(sim_class, cell_name, 2.0).run().events_processed
    capped = truncation_case(sim_class, cell_name, 2.0, max_events=int(events * fraction))
    result = capped.run()
    assert result.truncated
    stop = capped.scheduler.now
    uncapped = truncation_case(sim_class, cell_name, stop).run()

    def fields(result):
        return [
            (s.bytes_received, s.packets_received, s.queue_delay_sum, s.queue_delay_count, s.max_queue_delay)
            for s in result.flow_stats
        ]

    assert fields(result) == fields(uncapped)
    assert sum(s.packets_received for s in result.flow_stats) > 0


@pytest.mark.parametrize("kernel", ["auto", "generic"])
def test_endpoints_hops_and_protocols_die_with_the_simulation(sim_class):
    gc.collect()
    with gc_paused():
        sim = build(TWO_HOP, sim_class)
        result = sim.run()
        refs = [
            weakref.ref(obj)
            for obj in (sim.senders[0], sim.receivers[1], sim.senders[1].cc, sim.network)
            + tuple(sim.network.forward_links + sim.network.reverse_links)
        ]
        assert all(ref() is not None for ref in refs)
        del sim, result
        assert [ref() for ref in refs] == [None] * len(refs)


def test_a_batch_of_design_jobs_hands_the_collector_nothing():
    jobs = design_jobs(20)
    SerialBackend().run_batch(jobs[:2])  # warm
    passes = []

    def count(phase, info):
        if phase == "stop":
            passes.append((info["generation"], info["collected"]))

    gc.collect()
    gc.callbacks.append(count)
    try:
        results = SerialBackend().run_batch(jobs)
    finally:
        gc.callbacks.remove(count)
    assert len(results) == 20
    assert sum(collected for _, collected in passes) == 0
    assert all(generation < 2 for generation, _ in passes)


# ---------------------------------------------------------------------------
# One collector pause, restored on every exit path
# ---------------------------------------------------------------------------
class RaisesOnAck(NewReno):
    def on_ack(self, ack):
        raise ZeroDivisionError("protocol bug")


def _job(**fields) -> SimJob:
    fields = {
        "job_id": 0, "spec": DUMBBELL, "duration": 1.0, "seed": 1,
        "protocols": (ProtocolSpec("newreno"),), **fields,
    }
    return SimJob(**fields)


class TestCollectorSetting:
    @pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
    def caller_setting(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def test_gc_paused_nests_and_restores(self, caller_setting):
        with gc_paused():
            assert not gc.isenabled()
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is caller_setting

    def test_after_a_normal_and_a_truncated_job(self, caller_setting):
        uncapped = run_sim_job(_job()).result
        assert not uncapped.truncated
        assert gc.isenabled() is caller_setting
        assert run_sim_job(_job(max_events=uncapped.events_processed // 2)).result.truncated
        assert gc.isenabled() is caller_setting

    def test_after_a_protocol_that_raises(self, caller_setting, monkeypatch):
        monkeypatch.setitem(PROTOCOLS, "raises-on-ack", RaisesOnAck)
        with pytest.raises(ZeroDivisionError):
            run_sim_job(_job(protocols=(ProtocolSpec("raises-on-ack"),)))
        assert gc.isenabled() is caller_setting

    def test_after_a_constructor_that_raises(self, caller_setting):
        with pytest.raises(ValueError):
            run_sim_job(_job(duration=math.nan))
        assert gc.isenabled() is caller_setting

    def test_the_collector_is_off_while_a_simulation_runs(self, caller_setting):
        seen = []

        class Watches(NewReno):
            def on_ack(self, ack):
                seen.append(gc.isenabled())
                super().on_ack(ack)

        Simulation(DUMBBELL, [Watches(), Watches()], duration=0.5).run()
        assert seen and not any(seen)
        assert gc.isenabled() is caller_setting


# ---------------------------------------------------------------------------
# What survives run(): every datum a caller reads afterwards
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ["auto", "generic"])
def test_a_finished_simulation_still_reads(sim_class):
    sim = build(DUMBBELL, sim_class)
    result = sim.run()
    for sender, stats in zip(sim.senders, result.flow_stats):
        assert sender.stats is stats and stats.packets_received > 0
        assert sender.cc.cwnd >= 1.0
        assert sender.on_ack is unwired  # the closure is gone
        assert sender.transmit is None
    queue = sim.network.forward_links[0].queue
    assert queue.drops == result.queue_drops > 0
    assert sim.scheduler.events_processed == result.events_processed > 0
    assert sim.scheduler.now == sim.duration
    assert sim.scheduler.pending == 0


# ---------------------------------------------------------------------------
# Bugfix: a simulation runs once, and says so
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ["auto", "generic"])
def test_a_second_run_is_an_error_raised_before_anything_is_touched(sim_class):
    sim = build(DUMBBELL, sim_class)
    result = sim.run()
    sent = [stats.packets_sent for stats in result.flow_stats]
    with pytest.raises(SimulationError, match="runs once"):
        sim.run()
    assert [sender.state for sender in sim.senders] == ["off", "off"]
    assert [stats.packets_sent for stats in result.flow_stats] == sent


# ---------------------------------------------------------------------------
# Bugfix: clear() leaves late cancels harmless
# ---------------------------------------------------------------------------
def test_clear_empties_the_lane_and_marks_entries_executed():
    scheduler = EventScheduler()
    calls = []
    entry = scheduler.post(1.0, calls.append, "heap")
    later = scheduler.post_after(2.0, calls.append, "entry")
    same_time = scheduler.post(0.0, calls.append, "heap-now")
    for time in (0.5, 0.75):
        scheduler._lane.append([time, scheduler._sequence, calls.append, "lane"])
        scheduler._sequence += 1
    assert scheduler.pending == 5
    scheduler.clear()
    assert scheduler.pending == 0
    assert later[2] is None and later[3] == ()
    for token in (entry, same_time, later):
        scheduler.cancel_entry(token)
    assert scheduler.pending == 0
    assert scheduler.run_until(10.0) == 0 and calls == []
    scheduler.post_after(1.0, calls.append, "after")  # still a working scheduler
    assert scheduler.pending == 1 and scheduler.run_until(20.0) == 1 and calls == ["after"]


@pytest.mark.parametrize("kernel", ["auto", "generic"])
def test_a_timer_handle_that_outlives_the_run_cancels_to_nothing(sim_class):
    sim = build(DUMBBELL, sim_class)
    handle = sim.scheduler.post(10.0, lambda: None)  # beyond the run's end
    rto_entries = []
    sim.scheduler.post(1.0, lambda: rto_entries.extend(s._rto_event for s in sim.senders))
    sim.run()
    assert rto_entries and all(entry is not None for entry in rto_entries)
    sim.scheduler.cancel_entry(handle)
    for entry in rto_entries:
        sim.scheduler.cancel_entry(entry)
    assert sim.scheduler.pending == 0


# ---------------------------------------------------------------------------
# Bugfix: a non-finite duration is rejected, with its value
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
class TestNonFiniteDuration:
    def test_simulation(self, duration):
        with pytest.raises(ValueError, match=f"duration must be positive and finite, got {duration!r}"):
            Simulation(DUMBBELL, [NewReno(), NewReno()], duration=duration)

    def test_scenario_build(self, duration):
        with pytest.raises(ValueError, match="positive and finite"):
            get_scenario("fig4-dumbbell8").build(duration=duration)

    def test_the_evaluators_first_job(self, duration):
        evaluator = Evaluator(
            general_purpose_range(), settings=EvaluatorSettings(num_specimens=1, sim_duration=duration)
        )
        with pytest.raises(ValueError, match="positive and finite"):
            evaluator.evaluate(WhiskerTree())


# ---------------------------------------------------------------------------
# Bugfix: a NaN start delay neither poisons the clock nor hangs the run
# ---------------------------------------------------------------------------
class NanStart(Workload):
    """Switches on after NaN seconds: what a NaN-producing draw would do."""

    def first_on_delay(self, rng):
        return math.nan


@pytest.mark.parametrize("kernel", ["auto", "generic"])
def test_a_nan_start_delay_fails_loudly(sim_class):
    sim = build(DUMBBELL, sim_class, workloads=[NanStart(), None], max_events=50_000)
    with pytest.raises(SimulationError, match="nan"):
        sim.run()
    assert not math.isnan(sim.scheduler.now)


# ---------------------------------------------------------------------------
# Bugfix: a negative or fractional event cap is rejected, not silently lifted
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("max_events", [-1, -5, 1.5], ids=["-1", "-5", "1.5"])
class TestInvalidEventCap:
    def test_simulation(self, max_events):
        with pytest.raises(ValueError, match=f"max_events must be None or an int >= 0, got {max_events!r}"):
            Simulation(DUMBBELL, [NewReno(), NewReno()], duration=1.0, max_events=max_events)

    def test_scenario_build(self, max_events):
        with pytest.raises(ValueError, match="max_events"):
            get_scenario("bench-newreno-droptail").build(max_events=max_events)

    def test_the_evaluators_first_job(self, max_events):
        settings = EvaluatorSettings(num_specimens=1, sim_duration=1.0, max_events_per_sim=max_events)
        with pytest.raises(ValueError, match="max_events"):
            Evaluator(general_purpose_range(), settings=settings).evaluate(WhiskerTree())


def test_a_zero_event_cap_truncates_at_once():
    result = build(DUMBBELL, max_events=0).run()
    assert result.truncated and result.events_processed == 0
