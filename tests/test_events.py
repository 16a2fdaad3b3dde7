"""Unit tests for the event scheduler."""

import pytest

from repro.netsim.events import EventScheduler, SimulationError
from repro.netsim.kernel import FlatScheduler


def test_initial_time_is_zero(scheduler):
    assert scheduler.now == 0.0
    assert scheduler.events_processed == 0
    assert scheduler.pending == 0


def test_events_run_in_time_order(scheduler):
    order = []
    scheduler.schedule(2.0, order.append, "b")
    scheduler.schedule(1.0, order.append, "a")
    scheduler.schedule(3.0, order.append, "c")
    scheduler.run()
    assert order == ["a", "b", "c"]
    assert scheduler.now == 3.0


def test_ties_run_in_scheduling_order(scheduler):
    order = []
    for label in "abcde":
        scheduler.schedule(1.0, order.append, label)
    scheduler.run()
    assert order == list("abcde")


def test_schedule_after_uses_relative_delay(scheduler):
    seen = []

    def chain():
        scheduler.schedule_after(0.5, lambda: seen.append(scheduler.now))

    scheduler.schedule(1.0, chain)
    scheduler.run()
    assert seen == [1.5]


def test_cannot_schedule_in_the_past(scheduler):
    scheduler.schedule(1.0, lambda: None)
    scheduler.run()
    with pytest.raises(SimulationError):
        scheduler.schedule(0.5, lambda: None)


def test_negative_delay_rejected(scheduler):
    with pytest.raises(SimulationError):
        scheduler.schedule_after(-0.1, lambda: None)


def test_cancelled_event_does_not_run(scheduler):
    calls = []
    event = scheduler.schedule(1.0, calls.append, "x")
    event.cancel()
    scheduler.run()
    assert calls == []
    assert scheduler.events_processed == 0


def test_run_until_stops_at_deadline(scheduler):
    calls = []
    scheduler.schedule(1.0, calls.append, 1)
    scheduler.schedule(2.0, calls.append, 2)
    scheduler.schedule(5.0, calls.append, 5)
    executed = scheduler.run_until(3.0)
    assert executed == 2
    assert calls == [1, 2]
    assert scheduler.now == 3.0
    # The remaining event still runs later.
    scheduler.run_until(10.0)
    assert calls == [1, 2, 5]


def test_run_until_advances_time_even_with_no_events(scheduler):
    scheduler.run_until(7.5)
    assert scheduler.now == 7.5


def test_max_events_guard(scheduler):
    def reschedule():
        scheduler.schedule_after(0.001, reschedule)

    scheduler.schedule(0.0, reschedule)
    with pytest.raises(SimulationError):
        scheduler.run_until(100.0, max_events=50)


def test_max_events_allows_a_clean_drain_of_exactly_that_many(scheduler):
    # The cap guards against *exceeding* N, in run() as in run_until().
    for i in range(3):
        scheduler.schedule(i * 0.1, lambda: None)
    assert scheduler.run(max_events=3) == 3
    assert scheduler.pending == 0
    # A third due event is what trips a cap of two, and it stays queued.
    for i in range(3):
        scheduler.schedule_after(i * 0.1, lambda: None)
    with pytest.raises(SimulationError):
        scheduler.run(max_events=2)
    assert scheduler.events_processed == 5
    assert scheduler.pending == 1


def test_peek_time_skips_cancelled(scheduler):
    first = scheduler.schedule(1.0, lambda: None)
    scheduler.schedule(2.0, lambda: None)
    first.cancel()
    assert scheduler.peek_time() == 2.0


def test_step_returns_false_when_empty(scheduler):
    assert scheduler.step() is False


def test_events_processed_counter(scheduler):
    for i in range(5):
        scheduler.schedule(i * 0.1, lambda: None)
    scheduler.run()
    assert scheduler.events_processed == 5


# ---------------------------------------------------------------------------
# Tuple-heap scheduler: maintained pending counter, cancellation semantics,
# fire-and-forget posts and raw-entry timers.
# ---------------------------------------------------------------------------
def test_pending_is_maintained_not_scanned(scheduler):
    events = [scheduler.schedule(1.0 + i, lambda: None) for i in range(4)]
    assert scheduler.pending == 4
    events[1].cancel()
    assert scheduler.pending == 3
    events[1].cancel()  # double cancel must not double-decrement
    assert scheduler.pending == 3
    scheduler.step()
    assert scheduler.pending == 2
    scheduler.run()
    assert scheduler.pending == 0


def test_cancel_after_execution_is_noop(scheduler):
    calls = []
    event = scheduler.schedule(1.0, calls.append, "x")
    scheduler.run()
    assert calls == ["x"]
    event.cancel()  # already ran: must not corrupt the pending counter
    assert scheduler.pending == 0
    assert scheduler.events_processed == 1


def test_cancelling_the_currently_firing_event_is_safe(scheduler):
    # A callback that cancels its own (already firing) event: the old
    # Event-object scheduler tolerated this, the tuple-heap one must too.
    holder = {}

    def fire():
        holder["event"].cancel()

    holder["event"] = scheduler.schedule(1.0, fire)
    scheduler.run()
    assert scheduler.events_processed == 1
    assert scheduler.pending == 0


def test_post_and_schedule_share_the_tiebreak_sequence(scheduler):
    order = []
    scheduler.post(1.0, order.append, "a")
    scheduler.schedule(1.0, order.append, "b")
    scheduler.post_after(1.0, order.append, "c")
    scheduler.post(1.0, order.append, "d")
    scheduler.run()
    assert order == ["a", "b", "c", "d"]


def test_post_rejects_past_times(scheduler):
    scheduler.schedule(1.0, lambda: None)
    scheduler.run()
    with pytest.raises(SimulationError):
        scheduler.post(0.5, lambda: None)
    with pytest.raises(SimulationError):
        scheduler.post_after(-0.1, lambda: None)


def test_post_entry_cancellation(scheduler):
    calls = []
    entry = scheduler.post_entry_after(1.0, calls.append, "x")
    assert scheduler.pending == 1
    scheduler.cancel_entry(entry)
    assert entry[2] is None
    assert scheduler.pending == 0
    scheduler.cancel_entry(entry)  # idempotent
    assert scheduler.pending == 0
    scheduler.run()
    assert calls == []


def test_post_entry_absolute_time(scheduler):
    seen = []
    scheduler.post_entry(2.5, lambda: seen.append(scheduler.now))
    scheduler.run()
    assert seen == [2.5]


def test_cancelled_events_do_not_count_as_executed(scheduler):
    kept = []
    events = [scheduler.schedule(1.0 + i * 0.1, kept.append, i) for i in range(10)]
    for event in events[::2]:
        event.cancel()
    executed = scheduler.run_until(10.0)
    assert executed == 5
    assert scheduler.events_processed == 5
    assert kept == [1, 3, 5, 7, 9]


def test_tiebreak_is_fifo_across_many_same_time_events(scheduler):
    order = []
    for i in range(50):
        scheduler.schedule(1.0, order.append, i)
    scheduler.run()
    assert order == list(range(50))


# ---------------------------------------------------------------------------
# Same-time FIFO lane (run-to-completion dispatch): zero-delay posts bypass
# the heap but must keep the global (time, sequence) execution order.
# ---------------------------------------------------------------------------
def test_zero_delay_posts_run_after_events_already_due(scheduler):
    order = []

    def first():
        order.append("first")
        scheduler.post_after(0, order.append, "successor")
        scheduler.post_now(order.append, "successor2")

    scheduler.schedule(1.0, first)
    scheduler.schedule(1.0, order.append, "second")  # already due at t=1.0
    scheduler.run_until(2.0)
    # Successor work posted at t=1.0 runs after everything already queued
    # for t=1.0, in FIFO order — exactly as if it had been heap-pushed.
    assert order == ["first", "second", "successor", "successor2"]


def test_post_now_interleaves_with_heap_by_sequence(scheduler):
    order = []

    def fire():
        scheduler.post_now(order.append, "lane1")  # seq n
        scheduler.post(scheduler.now, order.append, "lane2")  # seq n+1, lane too
        scheduler.schedule(scheduler.now, order.append, "heap")  # seq n+2, heap
        scheduler.post_now(order.append, "lane3")  # seq n+3

    scheduler.schedule(1.0, fire)
    scheduler.run_until(2.0)
    assert order == ["lane1", "lane2", "heap", "lane3"]


def test_lane_entries_count_as_pending_and_processed(scheduler):
    scheduler.post_now(lambda: None)
    scheduler.post_after(0, lambda: None)
    assert scheduler.pending == 2
    assert scheduler.peek_time() == 0.0
    executed = scheduler.run_until(1.0)
    assert executed == 2
    assert scheduler.pending == 0
    assert scheduler.events_processed == 2


def test_step_drains_the_lane_in_order(scheduler):
    order = []
    scheduler.post_now(order.append, "a")
    scheduler.schedule(0.0, order.append, "b")
    scheduler.post_now(order.append, "c")
    while scheduler.step():
        pass
    assert order == ["a", "b", "c"]


def test_lane_survives_max_events_abort(scheduler):
    order = []

    def fire():
        for label in ("x", "y"):
            scheduler.post_now(order.append, label)

    scheduler.schedule(1.0, fire)
    with pytest.raises(SimulationError):
        scheduler.run_until(2.0, max_events=1)
    # The aborted run executed only `fire`; the lane still holds x and y
    # and a later run picks them up in order.
    assert order == []
    assert scheduler.pending == 2
    scheduler.run_until(2.0)
    assert order == ["x", "y"]


# ---------------------------------------------------------------------------
# The ``pending`` contract holds on both schedulers: the fused kernel's
# FlatScheduler overrides the counter to include its constant-delay lanes.
# ---------------------------------------------------------------------------
PENDING_CHECKS = [
    test_initial_time_is_zero,
    test_max_events_allows_a_clean_drain_of_exactly_that_many,
    test_pending_is_maintained_not_scanned,
    test_cancel_after_execution_is_noop,
    test_cancelling_the_currently_firing_event_is_safe,
    test_post_entry_cancellation,
    test_lane_entries_count_as_pending_and_processed,
    test_lane_survives_max_events_abort,
]


@pytest.mark.parametrize("scheduler_class", [EventScheduler, FlatScheduler])
@pytest.mark.parametrize("check", PENDING_CHECKS, ids=lambda check: check.__name__)
def test_pending_contract_on_both_schedulers(check, scheduler_class):
    check(scheduler_class())


def test_flat_scheduler_pending_counts_constant_delay_lane_entries():
    scheduler = FlatScheduler()
    order = []
    fast, slow = scheduler._lanes
    for lane, delay, label in ((slow, 0.5, "slow"), (fast, 0.25, "fast")):
        lane.append([scheduler.now + delay, scheduler._sequence, order.append, label])
        scheduler._sequence += 1
    scheduler.post_after(0.25, order.append, "heap")
    assert scheduler.pending == 3
    assert scheduler.peek_time() == 0.25
    assert scheduler.step()  # lane entry first: same time, earlier sequence
    assert order == ["fast"]
    assert scheduler.pending == 2
    assert scheduler.run_until(1.0) == 2
    assert order == ["fast", "heap", "slow"]
    assert scheduler.pending == 0
    assert scheduler.events_processed == 3
    assert not scheduler.step()
