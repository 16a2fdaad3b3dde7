"""Event scheduler for the discrete-event simulator.

One scheduler: a binary heap of plain ``[time, sequence, callback, args]``
list entries, plus two constant-delay FIFO lanes that stay empty unless the
wiring (:mod:`repro.netsim.kernel`) routes a uniform-RTT
dumbbell's per-packet hand-offs onto them.  The monotonically increasing
sequence number makes ordering deterministic when two events share the same
timestamp, which in turn makes every simulation reproducible for a given
random seed.  Because the sequence number is unique, entry comparisons never
reach the callback slot, so entries compare as cheaply as ``(float, int)``
tuples.

Scheduling is :meth:`EventScheduler.post` (absolute time) or
:meth:`~EventScheduler.post_after` (relative delay).  Both return the entry,
which doubles as the cancellation token :meth:`~EventScheduler.cancel_entry`
takes (senders cancel RTO, pacing and on/off timers); ``entry[2] is None``
means it was cancelled or has already run.  Cancellation is lazy: a
cancelled entry stays queued until popped.  Work posted for *right now*
runs after everything already due at the current timestamp, in posting
order — the ``(time, sequence)`` order gives that for free.

**Constant-delay lanes.**  A lane is a plain deque of entries appended in
``(time, sequence)`` order, in O(1) where the heap pays O(log n) twice;
:meth:`~EventScheduler.run_until` merges the two lane heads with the heap
top, which reproduces exactly the order heap-pushing the same entries would
produce.  Only a constant-rate dumbbell whose flows share one RTT uses them.
On its FIFO bottleneck (the eager path, :mod:`repro.netsim.link`) every
packet's one event is its ACK, posted at enqueue one serialization-chained
finish time plus one RTT ahead: those times grow with the enqueue order, so
lane 1 holds the ACKs and lane 0 stays empty.  Behind an AQM the events are
the event path's, each one of two *constant* delays ahead of a
non-decreasing clock (serialize at the bottleneck on lane 0; propagate one
way on lane 1).  Every other topology has more distinct delays than the
merge is worth (README "Kernel architecture") and leaves the lanes empty.
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
    """Heap plus two constant-delay lanes, with deterministic tie-breaking."""

    __slots__ = ("_heap", "_lanes", "_sequence", "_heap_version", "now", "_processed", "_loop")

    def __init__(self) -> None:
        self._heap: list[list[Any]] = []
        #: The serialization lane and the one-way-delay lane.  A lane entry
        #: is ``[time, sequence, callback, arg]`` — the bare callback
        #: argument (always exactly one on the per-packet chain), not an args
        #: tuple.  The fused closures append ``[now + delay, _sequence,
        #: callback, arg]`` and bump ``_sequence`` themselves, always with the
        #: same ``delay`` on the same lane (lane sortedness depends on it).
        #: Nothing cancels a lane entry.
        self._lanes: tuple[deque[list[Any]], deque[list[Any]]] = (deque(), deque())
        self._sequence = 0
        #: Bumped by every heap push that can happen while lanes hold
        #: entries (:meth:`post`, :meth:`post_after`, the fused pacing
        #: timer).  While lanes are in use the dispatch loop caches the heap
        #: head's timestamp and only re-reads the heap when this moves: a
        #: pop or a cancellation only raises the live head's time, so the
        #: cached one stays a valid lower bound.
        self._heap_version = 0
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
        """Queued, not-yet-cancelled entries, lanes included.  A scan, for
        diagnostics only: nothing maintains a counter on the hot path."""
        lane_a, lane_b = self._lanes
        live = sum(entry[2] is not None for entry in self._heap)
        return live + len(lane_a) + len(lane_b)

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
        self._heap_version += 1
        return entry

    def post_after(self, delay: float, callback: Callable[..., None], *args: Any) -> list[Any]:
        """Run ``callback(*args)`` ``delay`` seconds from now; returns the entry."""
        if not delay >= 0:  # NaN-failing form
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        entry = [self.now + delay, self._sequence, callback, args]
        self._sequence += 1
        _heappush(self._heap, entry)
        self._heap_version += 1
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
        the heap and the lanes)."""
        for entry in self._heap:
            entry[2] = None
            entry[3] = ()
        self._heap.clear()
        for lane in self._lanes:
            lane.clear()

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
        With both lanes empty it is the plain heap loop.  Otherwise the lane
        heads merge with the heap top: a lane head strictly earlier than the
        cached heap-head bound (re-read only when ``_heap_version`` moves)
        cannot be outrun by any heap entry and dispatches at once; ties and
        later lane heads take the slow path, which purges cancelled heap
        heads and does the full ``(time, sequence)`` comparison.
        """
        heap = self._heap
        lane_a, lane_b = self._lanes
        pop = _heappop
        limit = -1 if max_events is None else max_events
        executed = 0
        batch_time = None  # timestamp currently being dispatched
        cached_version = self._heap_version - 1  # force the first read
        heap_time = 0.0
        heap_live = False
        self._loop = sys._getframe()
        try:
            while True:
                if lane_a or lane_b:
                    if lane_a:
                        best = lane_a[0]
                        src: Any = lane_a
                        if lane_b:
                            head = lane_b[0]
                            if head < best:
                                best = head
                                src = lane_b
                    else:
                        best = lane_b[0]
                        src = lane_b
                    version = self._heap_version
                    if version != cached_version:
                        cached_version = version
                        while heap and heap[0][2] is None:  # lazily cancelled
                            pop(heap)
                        if heap:
                            heap_time = heap[0][0]
                            heap_live = True
                        else:
                            heap_live = False
                    if heap_live and not best[0] < heap_time:
                        # Slow path: the heap head may be due first.
                        while heap:
                            head = heap[0]
                            if head[2] is None:  # lazily cancelled
                                pop(heap)
                                continue
                            if head < best:
                                best = head
                                src = heap
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
                    if src is heap:
                        pop(heap)
                        cached_version -= 1  # head changed: force a re-read
                        callback = best[2]
                        best[2] = None  # mark executed so a late cancel is a no-op
                        callback(*best[3])
                    else:
                        src.popleft()
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
