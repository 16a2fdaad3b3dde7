"""Event scheduler for the discrete-event simulator.

One scheduler: a binary heap of plain ``[time, sequence, callback, args]``
list entries, plus one constant-delay FIFO lane that stays empty unless the
wiring (:mod:`repro.netsim.kernel`) routes a uniform-RTT dumbbell's one-way
hand-offs onto it.  The monotonically increasing sequence number makes
ordering deterministic when two events share the same timestamp, which in
turn makes every simulation reproducible for a given random seed.  Because
the sequence number is unique, entry comparisons never reach the callback
slot, so entries compare as cheaply as ``(float, int)`` tuples.

Scheduling is :meth:`EventScheduler.post` (absolute time) or
:meth:`~EventScheduler.post_after` (relative delay).  Both return the entry,
which doubles as the cancellation token :meth:`~EventScheduler.cancel_entry`
takes (senders cancel RTO, pacing and on/off timers); ``entry[2] is None``
means it was cancelled or has already run.  Cancellation is lazy: a
cancelled entry stays queued until popped.  Work posted for *right now*
runs after everything already due at the current timestamp, in posting
order — the ``(time, sequence)`` order gives that for free.

**The constant-delay lane.**  The lane is a plain deque of entries appended
in ``(time, sequence)`` order, in O(1) where the heap pays O(log n) twice;
:meth:`~EventScheduler.run_until` compares the lane head with the heap head,
which reproduces exactly the order heap-pushing the same entries would
produce, whoever pushed onto the heap and however.  Only a constant-rate
dumbbell whose flows share one RTT uses it, for the one-way hand-offs.  On
its FIFO bottleneck (the eager path, :mod:`repro.netsim.link`) those are
the ACKs, posted at enqueue one serialization-chained finish time plus one
RTT ahead, times that grow with the enqueue order; behind an AQM they are
the arrivals at the receivers and the ACKs, each the one-way delay ahead of
a non-decreasing clock.  Every other topology has more distinct delays
than the merge is worth (README "Kernel architecture") and leaves the lane
empty.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from types import FrameType
from typing import Any, Callable, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised when the simulator is driven into an inconsistent state."""


class EventCapExceeded(SimulationError):
    """``max_events`` ran out before the requested time was reached.

    The scheduler is left consistent (counters reconciled, the unexecuted
    event still queued), so a driver may catch this and report a truncated
    run instead of failing.
    """


class EventScheduler:
    """Heap plus one constant-delay lane, with deterministic tie-breaking."""

    __slots__ = ("_heap", "_lane", "_sequence", "now", "_processed", "_loop")

    def __init__(self) -> None:
        self._heap: list[list[Any]] = []
        #: The one-way-delay lane.  A lane entry is ``[time, sequence,
        #: callback, arg]`` — the bare callback argument (always exactly one
        #: on the per-packet chain), not an args tuple.  The fused closures
        #: append ``[now + delay, _sequence, callback, arg]`` and bump
        #: ``_sequence`` themselves, always with the same ``delay`` (lane
        #: sortedness depends on it).  Nothing cancels a lane entry.
        self._lane: deque[list[Any]] = deque()
        self._sequence = 0
        #: Current simulation time in seconds.  A plain attribute (not a
        #: property): it is read on every hop of the per-packet hot path.
        self.now = 0.0
        self._processed = 0
        #: The frame of the running :meth:`run_until` (``None`` between
        #: calls): its dispatch loop counts in a local.
        self._loop: Optional[FrameType] = None

    @property
    def events_processed(self) -> int:
        """Number of events executed so far, the one executing included.

        The dispatch loop counts in a local and adds it to ``_processed``
        when it returns, so mid-run (a sanitizer sample, a callback) the
        count is read off the running loop's frame: no store per event.
        """
        loop = self._loop
        if loop is None:
            return self._processed
        executed: int = loop.f_locals["executed"]
        return self._processed + executed

    @property
    def pending(self) -> int:
        """Queued, not-yet-cancelled entries, the lane's included.  A scan,
        for diagnostics only: nothing maintains a counter on the hot path."""
        return sum(entry[2] is not None for entry in self._heap) + len(self._lane)

    # ------------------------------------------------------------------ scheduling
    def post(self, time: float, callback: Callable[..., None], *args: Any) -> list[Any]:
        """Run ``callback(*args)`` at absolute ``time``; returns the entry.

        A time in the past (beyond float slack) or NaN is an error; a time at
        ``now`` runs after everything already due at ``now``.
        """
        # Kept inline (no shared push helper): trace links post every
        # delivery opportunity through here.
        now = self.now
        if not time >= now:  # NaN-failing form
            if not time >= now - 1e-12:
                raise SimulationError(
                    f"cannot schedule event at t={time:.9f} before now={now:.9f}"
                )
            time = now
        entry = [time, self._sequence, callback, args]
        self._sequence += 1
        _heappush(self._heap, entry)
        return entry

    def post_after(self, delay: float, callback: Callable[..., None], *args: Any) -> list[Any]:
        """Run ``callback(*args)`` ``delay`` seconds from now; returns the entry."""
        if not delay >= 0:  # NaN-failing form
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        entry = [self.now + delay, self._sequence, callback, args]
        self._sequence += 1
        _heappush(self._heap, entry)
        return entry

    def cancel_entry(self, entry: list[Any]) -> None:
        """Cancel an entry :meth:`post` / :meth:`post_after` returned (a
        no-op once it ran or was cancelled); its args are released."""
        entry[2] = None
        entry[3] = ()

    def uncount_event(self) -> None:
        """Exclude the currently executing callback from ``events_processed``.

        For suppressed-timer bookkeeping (see the sender's RTO deadline): a
        timer that fires before its deadline notices and re-posts itself
        without touching simulation state.  Uncounting those checks keeps
        ``events_processed`` — the basis of the benchmark's event counts and
        the determinism fingerprints — a measure of *simulation* events,
        independent of how timers are implemented.
        """
        self._processed -= 1

    def clear(self) -> None:
        """Drop everything still queued (a finished simulation's teardown),
        marking each heap entry executed so cancelling a token that outlived
        the run stays a no-op; emptied in place (the fused closures alias
        the heap and the lane)."""
        for entry in self._heap:
            entry[2] = None
            entry[3] = ()
        self._heap.clear()
        self._lane.clear()

    # ------------------------------------------------------------------ execution
    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events until ``end_time`` (inclusive) or the queue drains.

        Returns the number of events executed.  ``max_events`` guards against
        runaway simulations (e.g. a protocol bug producing an event storm):
        only a due event *beyond* the cap raises :class:`EventCapExceeded`,
        leaving it queued and the clock at the last event run.  The cap may
        fall inside an instant; ``run_until(now)`` then runs the rest of it,
        so a caller can stop at an instant boundary
        (:meth:`~repro.netsim.simulator.Simulation.run` does).

        The simulator's dispatch loop.  Entries due at one timestamp are
        dispatched back to back (the clock is stored once per distinct
        timestamp) and ``_processed`` is reconciled once per call (mid-run,
        :attr:`events_processed` reads the loop's local count).
        With the lane empty it is the plain heap loop.  Otherwise the lane
        head is compared with the live heap head (cancelled heap heads are
        purged first) by ``(time, sequence)``, and the earlier one runs.
        """
        heap = self._heap
        lane = self._lane
        pop = _heappop
        limit = -1 if max_events is None else max_events
        executed = 0
        batch_time = None  # timestamp currently being dispatched
        self._loop = sys._getframe()
        try:
            while True:
                if lane:
                    best = lane[0]
                    on_heap = False
                    while heap:
                        head = heap[0]
                        if head[2] is None:  # lazily cancelled
                            pop(heap)
                            continue
                        if head < best:
                            best = head
                            on_heap = True
                        break
                    time = best[0]
                    if executed == limit and time <= end_time:
                        raise EventCapExceeded(
                            f"exceeded max_events={max_events} before reaching t={end_time}"
                        )
                    if time != batch_time:
                        if time > end_time:
                            break
                        batch_time = time
                        self.now = time
                    executed += 1
                    if on_heap:
                        pop(heap)
                        callback = best[2]
                        best[2] = None  # mark executed so a late cancel is a no-op
                        callback(*best[3])
                    else:
                        lane.popleft()
                        best[2](best[3])
                elif heap:
                    entry = pop(heap)
                    callback = entry[2]
                    if callback is None:  # lazily cancelled
                        continue
                    time = entry[0]
                    if executed == limit and time <= end_time:
                        _heappush(heap, entry)
                        raise EventCapExceeded(
                            f"exceeded max_events={max_events} before reaching t={end_time}"
                        )
                    if time != batch_time:
                        if time > end_time:
                            _heappush(heap, entry)  # not due: queued as it was
                            break
                        batch_time = time
                        self.now = time
                    entry[2] = None  # mark executed so a late cancel is a no-op
                    executed += 1
                    callback(*entry[3])
                else:
                    break
        finally:
            self._processed += executed
            self._loop = None
        if end_time > self.now:
            self.now = end_time
        return executed
