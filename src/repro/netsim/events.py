"""Event scheduler for the discrete-event simulator.

The scheduler is a binary heap of plain ``[time, sequence, callback, args]``
list entries plus a same-time FIFO lane.  The monotonically increasing
sequence number makes ordering deterministic when two events share the same
timestamp, which in turn makes every simulation reproducible for a given
random seed.  Because the sequence number is unique, entry comparisons never
reach the callback slot, so entries compare as cheaply as ``(float, int)``
tuples — the previous implementation paid a ``dataclass(order=True)``
``__lt__`` (which builds two tuples per comparison) plus a separate ``Event``
object for every scheduled callback.

Two scheduling APIs share the (time, sequence) ordering:

* :meth:`EventScheduler.schedule` / :meth:`~EventScheduler.schedule_after`
  return an :class:`Event` cancellation handle (senders need to cancel RTO,
  pacing and on/off timers);
* :meth:`EventScheduler.post` / :meth:`~EventScheduler.post_after` are the
  allocation-lean fire-and-forget variants used by the per-packet hot path
  (link serialization, propagation, ACK return), which never cancels.

Run-to-completion dispatch (PR 3).  Deterministic successor work scheduled
for *right now* — a link transmit completing and immediately dequeuing the
next packet, a trace link's back-to-back delivery opportunities, pacing
timers landing on the current instant — never needs the heap's ordering
power: it must simply run after everything already due at the current
timestamp, in FIFO order.  ``post``/``post_after`` therefore route zero-delay
work into ``_ready``, a plain deque (the *same-time FIFO lane*), and
:meth:`run_until` merges the lane with the heap by ``(time, sequence)``.
Because lane entries draw from the same sequence counter as heap entries,
the merged order is bit-identical to what heap-pushing them would produce,
while costing O(1) per event instead of two O(log n) heap operations.
:meth:`run_until` itself is a single inlined loop that batches bookkeeping:
``events_processed``/``pending`` are reconciled once per call rather than
once per event, and same-timestamp runs skip redundant clock stores.

Cancellation is lazy: a cancelled entry has its callback slot set to ``None``
and stays queued until popped.  ``pending`` is a maintained counter
(schedule +1, cancel −1, execute −1), not a heap scan.
"""

from __future__ import annotations

import heapq
from collections import deque
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


class Event:
    """Cancellation handle for a scheduled callback.

    Returned by :meth:`EventScheduler.schedule`.  Cancellation is lazy: the
    heap entry stays queued but is skipped when popped.  Cancelling an event
    that already ran is a harmless no-op.
    """

    __slots__ = ("_entry", "_scheduler", "cancelled")

    def __init__(self, entry: list[Any], scheduler: "EventScheduler") -> None:
        self._entry = entry
        self._scheduler = scheduler
        self.cancelled = False

    @property
    def time(self) -> float:
        """Absolute time the callback is (or was) due to run."""
        return self._entry[0]

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when due."""
        if self.cancelled:
            return
        self.cancelled = True
        entry = self._entry
        if entry[2] is not None:  # still queued (not yet executed)
            entry[2] = None
            entry[3] = ()  # release references held by the args tuple
            self._scheduler._pending -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self._entry[0]:.6f}, {state})"


class EventScheduler:
    """Priority-queue event scheduler with deterministic tie-breaking."""

    __slots__ = ("_heap", "_ready", "_sequence", "now", "_processed", "_pending")

    def __init__(self, start_time: float = 0.0) -> None:
        self._heap: list[list[Any]] = []
        #: Same-time FIFO lane: entries due at the current instant, appended
        #: in sequence order (each append happens at a ``now`` no earlier and
        #: a sequence number strictly greater than the one before it), so the
        #: lane is always sorted by ``(time, sequence)`` and its head can be
        #: merged against the heap top with one list comparison.
        self._ready: deque[list[Any]] = deque()
        self._sequence = 0
        #: Current simulation time in seconds.  A plain attribute (not a
        #: property): it is read on every hop of the per-packet hot path.
        self.now = float(start_time)
        self._processed = 0
        self._pending = 0

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of queued, not-yet-cancelled events (O(1) counter)."""
        return self._pending

    # ------------------------------------------------------------------ scheduling
    def _push(self, time: float, callback: Callable[..., None], args: tuple[Any, ...]) -> list[Any]:
        now = self.now
        if time < now:
            if time < now - 1e-12:
                raise SimulationError(
                    f"cannot schedule event at t={time:.9f} before now={now:.9f}"
                )
            time = now
        entry = [time, self._sequence, callback, args]
        self._sequence += 1
        _heappush(self._heap, entry)
        self._pending += 1
        return entry

    def schedule(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``; returns a handle.

        Scheduling in the past is an error; scheduling exactly at ``now`` is
        allowed and runs after currently executing events.
        """
        return Event(self._push(time, callback, args), self)

    def schedule_after(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return Event(self._push(self.now + delay, callback, args), self)

    def post(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation handle is built.

        The per-packet hot path (link serialization, propagation delays, ACK
        return paths) never cancels, so it uses this allocation-lean variant.
        Work due at the current instant goes through the same-time FIFO lane
        instead of the heap (same execution order, O(1) instead of O(log n)).
        """
        # _push inlined: this runs several times per simulated packet.
        now = self.now
        if time <= now:
            if time < now - 1e-12:
                raise SimulationError(
                    f"cannot schedule event at t={time:.9f} before now={now:.9f}"
                )
            self._ready.append([now, self._sequence, callback, args])
        else:
            _heappush(self._heap, [time, self._sequence, callback, args])
        self._sequence += 1
        self._pending += 1

    def post_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_after`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        # _push inlined (delay >= 0 implies the time is never in the past).
        if delay == 0:
            self._ready.append([self.now, self._sequence, callback, args])
        else:
            _heappush(self._heap, [self.now + delay, self._sequence, callback, args])
        self._sequence += 1
        self._pending += 1

    def post_now(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at the current instant, after work already due.

        The explicit entry point to the same-time FIFO lane: successor work
        that must run at ``now`` — but *after* everything already queued for
        ``now`` — bypasses heap push/pop entirely while keeping the global
        ``(time, sequence)`` execution order.  (Successor work that may run
        immediately, like the link's transmit → dequeue → next-transmit
        chain, is a plain synchronous call and needs no scheduling at all.)
        """
        self._ready.append([self.now, self._sequence, callback, args])
        self._sequence += 1
        self._pending += 1

    def post_entry_after(self, delay: float, callback: Callable[..., None], *args: Any) -> list[Any]:
        """Like :meth:`post_after`, but return the raw heap entry.

        The entry doubles as a zero-allocation cancellation token for
        :meth:`cancel_entry`; ``entry[2] is None`` means it was cancelled or
        has already run.  Used by the sender's per-ACK RTO/pacing rearm,
        where a full :class:`Event` handle per acknowledgment is measurable.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        entry = [self.now + delay, self._sequence, callback, args]
        self._sequence += 1
        _heappush(self._heap, entry)
        self._pending += 1
        return entry

    def post_entry(self, time: float, callback: Callable[..., None], *args: Any) -> list[Any]:
        """Absolute-time variant of :meth:`post_entry_after`."""
        return self._push(time, callback, args)

    def cancel_entry(self, entry: list[Any]) -> None:
        """Cancel a raw entry from :meth:`post_entry_after` (no-op if done)."""
        if entry[2] is not None:
            entry[2] = None
            entry[3] = ()
            self._pending -= 1

    def uncount_event(self) -> None:
        """Exclude the currently executing callback from ``events_processed``.

        For suppressed-timer bookkeeping (see the sender's RTO rearm): a
        timer whose deadline moved while it sat in the heap fires, notices,
        and re-posts itself at the new deadline without touching simulation
        state.  Uncounting those checks keeps ``events_processed`` — the
        basis of the events/sec benchmark and the determinism fingerprints —
        a measure of *simulation* events, independent of how timers are
        implemented.
        """
        self._processed -= 1

    def clear(self) -> None:
        """Drop everything still queued (a finished simulation's teardown),
        marking each entry executed so cancelling a handle that outlived the
        run stays a no-op; emptied in place (the fused closures alias the heap)."""
        for entry in (*self._heap, *self._ready):
            entry[2] = None
            entry[3] = ()
        self._heap.clear()
        self._ready.clear()
        self._pending = 0

    # ------------------------------------------------------------------ inspection
    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next pending event, or ``None``."""
        heap = self._heap
        while heap and heap[0][2] is None:
            _heappop(heap)
        ready = self._ready
        while ready and ready[0][2] is None:
            ready.popleft()
        if ready:
            if heap and heap[0] < ready[0]:
                return heap[0][0]
            return ready[0][0]
        if not heap:
            return None
        return heap[0][0]

    # ------------------------------------------------------------------ execution
    def step(self) -> bool:
        """Execute the next pending event.  Returns ``False`` if none remain."""
        heap = self._heap
        ready = self._ready
        while heap or ready:
            if ready and not (heap and heap[0] < ready[0]):
                entry = ready.popleft()
            else:
                entry = _heappop(heap)
            callback = entry[2]
            if callback is None:
                continue
            entry[2] = None  # mark executed so a late cancel() is a no-op
            self.now = entry[0]
            self._processed += 1
            self._pending -= 1
            callback(*entry[3])
            return True
        return False

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events until ``end_time`` (inclusive) or the queue drains.

        Returns the number of events executed.  ``max_events`` guards against
        runaway simulations (e.g. a protocol bug producing an event storm).

        This is the simulator's run-to-completion dispatch loop: one inlined
        loop merges the same-time FIFO lane with the heap by ``(time,
        sequence)``, entries due at one timestamp are dispatched back to back
        (the clock is stored once per distinct timestamp, not once per
        event), and the ``events_processed``/``pending`` counters are
        reconciled once per call instead of once per event.
        """
        heap = self._heap
        ready = self._ready
        pop = _heappop
        popleft = ready.popleft
        limit = -1 if max_events is None else max_events
        executed = 0
        batch_time = None  # timestamp currently being dispatched
        try:
            while True:
                # Select the next entry: the (time, sequence) minimum of the
                # heap top and the FIFO lane head.  Entry lists compare
                # lexicographically and sequence numbers are unique, so the
                # comparison never reaches the callback slot.  The heap-only
                # case is the hot path and dispatches without lane checks.
                if ready:
                    entry = ready[0]
                    if heap and heap[0] < entry:
                        entry = heap[0]
                        from_ready = False
                    else:
                        from_ready = True
                    callback = entry[2]
                    if callback is None:  # lazily cancelled
                        if from_ready:
                            popleft()
                        else:
                            pop(heap)
                        continue
                    time = entry[0]
                    if time != batch_time:
                        if time > end_time:
                            break
                        batch_time = time
                        self.now = time
                    if executed == limit:
                        raise EventCapExceeded(
                            f"exceeded max_events={max_events} before reaching t={end_time}"
                        )
                    if from_ready:
                        popleft()
                    else:
                        pop(heap)
                elif heap:
                    entry = heap[0]
                    callback = entry[2]
                    if callback is None:  # lazily cancelled
                        pop(heap)
                        continue
                    time = entry[0]
                    if time != batch_time:
                        if time > end_time:
                            break
                        batch_time = time
                        self.now = time
                    if executed == limit:
                        raise EventCapExceeded(
                            f"exceeded max_events={max_events} before reaching t={end_time}"
                        )
                    pop(heap)
                else:
                    break
                entry[2] = None  # mark executed so a late cancel() is a no-op
                executed += 1
                callback(*entry[3])
        finally:
            self._processed += executed
            self._pending -= executed
        if end_time > self.now:
            self.now = end_time
        return executed

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue is empty.  Returns events executed.

        As in :meth:`run_until`, only an event *beyond* ``max_events`` raises.
        """
        executed = 0
        while max_events is None or executed < max_events:
            if not self.step():
                return executed
            executed += 1
        if self.pending:
            raise EventCapExceeded(f"exceeded max_events={max_events}")
        return executed
