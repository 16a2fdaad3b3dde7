"""Unit tests for the event scheduler: the heap contract, and the merge of
the constant-delay lane with the heap in ``run_until``."""

import heapq
import math

import pytest

from repro.netsim.events import EventCapExceeded, SimulationError


def _lane_post(scheduler, delay, callback, arg):
    """Append to the constant-delay lane the way the fused closures do."""
    scheduler._lane.append([scheduler.now + delay, scheduler._sequence, callback, arg])
    scheduler._sequence += 1


def test_initial_time_is_zero(scheduler):
    assert scheduler.now == 0.0
    assert scheduler.events_processed == 0
    assert scheduler.pending == 0


def test_events_run_in_time_order(scheduler):
    order = []
    scheduler.post(2.0, order.append, "b")
    scheduler.post(1.0, order.append, "a")
    scheduler.post(3.0, order.append, "c")
    scheduler.run_until(10.0)
    assert order == ["a", "b", "c"]


def test_ties_run_in_scheduling_order(scheduler):
    order = []
    for label in "abcde":
        scheduler.post(1.0, order.append, label)
    scheduler.run_until(10.0)
    assert order == list("abcde")


def test_post_after_uses_relative_delay(scheduler):
    seen = []

    def chain():
        scheduler.post_after(0.5, lambda: seen.append(scheduler.now))

    scheduler.post(1.0, chain)
    scheduler.run_until(10.0)
    assert seen == [1.5]


def test_cannot_schedule_in_the_past(scheduler):
    scheduler.post(1.0, lambda: None)
    scheduler.run_until(1.0)
    with pytest.raises(SimulationError):
        scheduler.post(0.5, lambda: None)


def test_negative_delay_rejected(scheduler):
    with pytest.raises(SimulationError):
        scheduler.post_after(-0.1, lambda: None)


@pytest.mark.parametrize("method", ["post", "post_after"])
def test_a_nan_time_is_rejected_and_names_the_value(scheduler, method):
    calls = []
    with pytest.raises(SimulationError, match="nan"):
        getattr(scheduler, method)(math.nan, calls.append, "x")
    assert scheduler.pending == 0
    scheduler.run_until(5.0)
    assert calls == [] and scheduler.now == 5.0


def test_cancelled_event_does_not_run(scheduler):
    calls = []
    entry = scheduler.post(1.0, calls.append, "x")
    scheduler.cancel_entry(entry)
    scheduler.run_until(10.0)
    assert calls == []
    assert scheduler.events_processed == 0


def test_run_until_stops_at_deadline(scheduler):
    calls = []
    scheduler.post(1.0, calls.append, 1)
    scheduler.post(2.0, calls.append, 2)
    scheduler.post(5.0, calls.append, 5)
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
        scheduler.post_after(0.001, reschedule)

    scheduler.post(0.0, reschedule)
    with pytest.raises(SimulationError):
        scheduler.run_until(100.0, max_events=50)


def test_max_events_allows_a_clean_drain_of_exactly_that_many(scheduler):
    # The cap guards against *exceeding* N.
    for i in range(3):
        scheduler.post(i * 0.1, lambda: None)
    assert scheduler.run_until(1.0, max_events=3) == 3
    assert scheduler.pending == 0
    # A third due event is what trips a cap of two, and it stays queued.
    for i in range(3):
        scheduler.post_after(i * 0.1, lambda: None)
    with pytest.raises(EventCapExceeded):
        scheduler.run_until(2.0, max_events=2)
    assert scheduler.events_processed == 5
    assert scheduler.pending == 1


def test_events_processed_counter(scheduler):
    for i in range(5):
        scheduler.post(i * 0.1, lambda: None)
    scheduler.run_until(10.0)
    assert scheduler.events_processed == 5


def test_events_processed_counts_mid_run(scheduler):
    # The dispatch loop keeps its count in a local; a callback reading the
    # counter sees every event so far, itself included, and an uncounted one
    # (a sampler) is excluded without the counter ever going negative.
    seen = []

    def read(uncount=False):
        if uncount:
            scheduler.uncount_event()
        seen.append(scheduler.events_processed)

    for i in range(5):
        scheduler.post(i * 0.1, read, i == 2)
    scheduler.run_until(1.0)
    scheduler.post(1.5, read)
    scheduler.run_until(2.0)
    assert seen == [1, 2, 2, 3, 4, 5]
    assert scheduler.events_processed == 5


# ---------------------------------------------------------------------------
# Entries as cancellation tokens; ``pending`` is a scan of live entries.
# ---------------------------------------------------------------------------
def test_pending_counts_live_entries(scheduler):
    entries = [scheduler.post(1.0 + i, lambda: None) for i in range(4)]
    assert scheduler.pending == 4
    scheduler.cancel_entry(entries[1])
    assert scheduler.pending == 3
    scheduler.cancel_entry(entries[1])  # cancelling twice is harmless
    assert scheduler.pending == 3
    scheduler.run_until(1.0)
    assert scheduler.pending == 2
    scheduler.run_until(10.0)
    assert scheduler.pending == 0


def test_cancel_after_execution_is_noop(scheduler):
    calls = []
    entry = scheduler.post(1.0, calls.append, "x")
    scheduler.run_until(10.0)
    assert calls == ["x"]
    scheduler.cancel_entry(entry)  # already ran
    assert scheduler.pending == 0
    assert scheduler.events_processed == 1


def test_cancelling_the_currently_firing_event_is_safe(scheduler):
    holder = {}

    def fire():
        scheduler.cancel_entry(holder["entry"])

    holder["entry"] = scheduler.post(1.0, fire)
    scheduler.run_until(10.0)
    assert scheduler.events_processed == 1
    assert scheduler.pending == 0


def test_post_and_post_after_share_the_tiebreak_sequence(scheduler):
    order = []
    scheduler.post(1.0, order.append, "a")
    scheduler.post_after(1.0, order.append, "b")
    scheduler.post(1.0, order.append, "c")
    scheduler.run_until(10.0)
    assert order == ["a", "b", "c"]


def test_post_rejects_past_times(scheduler):
    scheduler.post(1.0, lambda: None)
    scheduler.run_until(1.0)
    with pytest.raises(SimulationError):
        scheduler.post(0.5, lambda: None)
    with pytest.raises(SimulationError):
        scheduler.post_after(-0.1, lambda: None)


def test_cancel_entry_is_idempotent_and_releases_the_args(scheduler):
    calls = []
    entry = scheduler.post_after(1.0, calls.append, "x")
    assert scheduler.pending == 1
    scheduler.cancel_entry(entry)
    assert entry[2] is None and entry[3] == ()
    assert scheduler.pending == 0
    scheduler.cancel_entry(entry)
    assert scheduler.pending == 0
    scheduler.run_until(10.0)
    assert calls == []


def test_post_runs_at_the_absolute_time(scheduler):
    seen = []
    scheduler.post(2.5, lambda: seen.append(scheduler.now))
    scheduler.run_until(10.0)
    assert seen == [2.5]


def test_cancelled_events_do_not_count_as_executed(scheduler):
    kept = []
    entries = [scheduler.post(1.0 + i * 0.1, kept.append, i) for i in range(10)]
    for entry in entries[::2]:
        scheduler.cancel_entry(entry)
    executed = scheduler.run_until(10.0)
    assert executed == 5
    assert scheduler.events_processed == 5
    assert kept == [1, 3, 5, 7, 9]


def test_tiebreak_is_fifo_across_many_same_time_events(scheduler):
    order = []
    for i in range(50):
        scheduler.post(1.0, order.append, i)
    scheduler.run_until(10.0)
    assert order == list(range(50))


def test_clear_drops_everything_and_leaves_late_cancels_harmless(scheduler):
    calls = []
    entry = scheduler.post(1.0, calls.append, "heap")
    _lane_post(scheduler, 0.5, calls.append, "lane")
    scheduler.clear()
    assert scheduler.pending == 0
    assert entry[2] is None and entry[3] == ()
    scheduler.cancel_entry(entry)
    assert scheduler.run_until(10.0) == 0 and calls == []
    scheduler.post_after(1.0, calls.append, "after")  # still a working scheduler
    assert scheduler.pending == 1 and scheduler.run_until(20.0) == 1 and calls == ["after"]


# ---------------------------------------------------------------------------
# Work posted for right now: after everything already due at ``now``, in
# sequence order — the heap's (time, sequence) order, nothing more.
# ---------------------------------------------------------------------------
def test_zero_delay_posts_run_after_events_already_due(scheduler):
    order = []

    def first():
        order.append("first")
        scheduler.post_after(0, order.append, "successor")
        scheduler.post(scheduler.now, order.append, "successor2")

    scheduler.post(1.0, first)
    scheduler.post(1.0, order.append, "second")  # already due at t=1.0
    scheduler.run_until(2.0)
    assert order == ["first", "second", "successor", "successor2"]


def test_posts_at_now_interleave_by_sequence(scheduler):
    order = []

    def fire():
        scheduler.post_after(0, order.append, "a")
        scheduler.post(scheduler.now - 1e-13, order.append, "b")  # clamped to now
        scheduler.post(scheduler.now, order.append, "c")
        scheduler.post_after(0, order.append, "d")

    scheduler.post(1.0, fire)
    scheduler.run_until(2.0)
    assert order == ["a", "b", "c", "d"]


def test_same_time_posts_survive_a_max_events_abort(scheduler):
    order = []

    def fire():
        for label in ("x", "y"):
            scheduler.post_after(0, order.append, label)

    scheduler.post(1.0, fire)
    with pytest.raises(EventCapExceeded):
        scheduler.run_until(2.0, max_events=1)
    # The aborted run executed only `fire`; x and y are still queued and a
    # later run picks them up in order.
    assert order == []
    assert scheduler.pending == 2
    scheduler.run_until(2.0)
    assert order == ["x", "y"]


# ---------------------------------------------------------------------------
# The lane merge: the lane head against the heap head, by (time, sequence).
# ---------------------------------------------------------------------------
def test_the_lane_merges_with_the_heap_by_time_then_sequence(scheduler):
    order = []
    _lane_post(scheduler, 0.25, order.append, "lane-first")
    _lane_post(scheduler, 0.5, order.append, "lane-last")
    scheduler.post_after(0.4, order.append, "heap-between")
    scheduler.post_after(0.25, order.append, "heap-tie")
    scheduler.post_after(0.1, order.append, "heap-first")
    assert scheduler.pending == 5
    assert scheduler.run_until(1.0) == 5
    assert order == ["heap-first", "lane-first", "heap-tie", "heap-between", "lane-last"]
    assert scheduler.pending == 0 and scheduler.events_processed == 5


def test_a_cancelled_heap_head_beneath_a_later_lane_head(scheduler):
    # The lane head at 1.0 meets a cancelled heap head (0.5): the loop must
    # purge it before comparing, and then compare with the live head (2.0).
    order = []
    doomed = scheduler.post(0.5, order.append, "cancelled")
    scheduler.post(2.0, order.append, "heap")
    _lane_post(scheduler, 0.2, lambda _: scheduler.cancel_entry(doomed), None)
    _lane_post(scheduler, 1.0, order.append, "lane")
    assert scheduler.run_until(3.0) == 3
    assert order == ["lane", "heap"]


def test_a_heap_entry_tying_a_lane_head_with_a_lower_sequence_runs_first(scheduler):
    order = []
    scheduler.post(1.0, order.append, "heap")
    _lane_post(scheduler, 1.0, order.append, "lane")
    scheduler.post(1.0, order.append, "heap-after")
    _lane_post(scheduler, 1.0, order.append, "lane-after")
    scheduler.run_until(2.0)
    assert order == ["heap", "lane", "heap-after", "lane-after"]


def test_a_post_from_a_lane_callback_runs_before_a_later_lane_head(scheduler):
    order = []

    def fire(_):
        order.append("fire")
        scheduler.post_after(0.5, order.append, "pushed")

    scheduler.post(5.0, order.append, "late")
    _lane_post(scheduler, 1.0, fire, None)
    _lane_post(scheduler, 2.0, order.append, "lane")
    scheduler.run_until(10.0)
    assert order == ["fire", "pushed", "lane", "late"]


def test_a_raw_heap_push_from_a_lane_callback_runs_in_time_order(scheduler):
    # The fused closures push onto ``_heap`` directly, bypassing ``post``:
    # the entry at 1.5 must still run between the lane heads at 1 and 2 s,
    # however the heap head (5.0) was read before the push.
    order = []

    def push(_):
        order.append("lane-1")
        heapq.heappush(scheduler._heap, [1.5, scheduler._sequence, order.append, ("raw-1.5",)])
        scheduler._sequence += 1

    scheduler.post(5.0, order.append, "heap-5")
    _lane_post(scheduler, 1.0, push, None)
    _lane_post(scheduler, 2.0, order.append, "lane-2")
    _lane_post(scheduler, 3.0, order.append, "lane-3")
    scheduler.run_until(10.0)
    assert order == ["lane-1", "raw-1.5", "lane-2", "lane-3", "heap-5"]


def test_a_max_events_abort_with_lane_entries_queued_then_resumes(scheduler):
    order = []
    for index, label in enumerate("abc"):
        _lane_post(scheduler, 0.1 * (index + 1), order.append, label)
    scheduler.post(0.25, order.append, "heap")
    with pytest.raises(EventCapExceeded):
        scheduler.run_until(1.0, max_events=2)
    assert order == ["a", "b"]
    assert scheduler.pending == 2 and scheduler.events_processed == 2
    assert scheduler.run_until(1.0) == 2
    assert order == ["a", "b", "heap", "c"]


def test_pending_counts_live_heap_and_lane_entries_after_cancels(scheduler):
    entries = [scheduler.post(1.0 + i, lambda: None) for i in range(3)]
    _lane_post(scheduler, 0.5, lambda _: None, None)
    _lane_post(scheduler, 0.7, lambda _: None, None)
    assert scheduler.pending == 5
    scheduler.cancel_entry(entries[0])
    scheduler.cancel_entry(entries[2])
    assert scheduler.pending == 3
    assert scheduler.run_until(0.6) == 1
    assert scheduler.pending == 2
    assert scheduler.run_until(10.0) == 2
    assert scheduler.pending == 0
