"""Pluggable simulation kernels: the dispatch engine behind a ``Simulation``.

A *kernel* owns the two mechanical halves of a run — the event scheduler
that orders callbacks and the per-simulation wiring that routes packets
between senders, links and receivers.  Everything semantic (congestion
control, queue disciplines, workload draws, statistics) is kernel-agnostic:
swapping kernels must reproduce the committed golden fingerprints
bit-identically, and ``tests/test_scenario_matrix.py`` asserts exactly that
for every registered cell.

Two kernels ship today:

* :class:`GenericKernel` — today's heap + same-time-FIFO
  :class:`~repro.netsim.events.EventScheduler`, driving the topology's own
  wiring untouched.  It supports every topology and is bit-identical to the
  pre-kernel engine *by construction*: selecting it changes no code path.

* :class:`FlatKernel` — a specialized engine for the dominant
  single-bottleneck dumbbell cells.  Two ideas, both order-preserving:

  **Constant-delay lanes.**  The per-packet event chain — serialize at the
  bottleneck, propagate one way, return the ACK one way — schedules every
  event a *constant* delay ahead of a non-decreasing clock, so each stream
  is already sorted by ``(time, sequence)``.  :class:`FlatScheduler` keeps
  one plain deque per distinct delay and merges the lane heads with the
  heap top at dispatch; appending is O(1) where the generic heap pays
  O(log n) twice, and the merged order is exactly what heap-pushing the
  same entries would produce (unique sequence numbers make the comparison
  total).  Timers (RTO, pacing, on/off switches) still use the heap.

  **Fused transmit → propagate → ACK chain.**  After the simulation is
  built normally (identical constructor order, identical rng draws), the
  kernel rebinds the per-packet hop callbacks to closures that inline the
  successor scheduling: the link's dequeue/serialize step appends straight
  to its serialization lane, delivery appends the receiver callback to the
  flow's one-way lane through a struct-of-arrays route table, and the
  receiver's ACK emission appends the sender's handler to the same lane —
  skipping the generic ``post_after``/heap dispatch for the deterministic
  successor pattern.  Every float is computed by the same expression in the
  same order as the generic wiring, and every event still executes (and is
  counted) at its own timestamp, so fingerprints — which include
  ``events_processed`` — are unchanged.

Cells the flat kernel cannot express (multi-hop paths, trace-driven links)
fall back to :class:`GenericKernel`: explicitly requesting ``kernel="flat"``
for one raises :class:`KernelUnsupportedError` with the reason, while the
default ``kernel="auto"`` degrades silently and records the choice in
``Simulation.kernel_name``.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from repro.netsim.events import (
    EventCapExceeded,
    EventScheduler,
    SimulationError,
    _heappop,
)
from repro.netsim.link import ConstantRateLink
from repro.netsim.network import DumbbellNetwork, NetworkSpec
from repro.netsim.packet import ACK_PACKET_BYTES, AckInfo, Packet, PacketPool
from repro.netsim.queue import DropTailQueue, QueueDiscipline
from repro.netsim.receiver import Receiver
from repro.netsim.sender import (
    DUPACK_THRESHOLD,
    MAX_RTO,
    MIN_RTO,
    Sender,
    _SentInfo,
)

if TYPE_CHECKING:  # avoid a cycle: simulator builds kernels, kernels wire sims
    from repro.netsim.simulator import Simulation, TopologySpec

#: Kernel names accepted by ``Simulation(kernel=...)`` and carried (as plain
#: strings, trivially picklable) by ``ScenarioSpec``/``SimJob``.
KERNEL_NAMES = ("auto", "generic", "flat")

#: One per-flow route of the fused chain: (one-way delay, lane, delivery sink).
_Route = tuple[float, "deque[list[Any]]", Callable[[Packet], None]]


class KernelUnsupportedError(SimulationError):
    """An explicitly requested kernel cannot express the given topology."""


class FlatScheduler(EventScheduler):
    """An :class:`EventScheduler` extended with constant-delay FIFO lanes.

    A lane is a deque of ``[time, sequence, callback, packet]`` entries that
    is sorted by construction: every append happens at the current clock
    plus one fixed delay, and both the clock and the sequence counter are
    non-decreasing, so each lane is a monotone ``(time, sequence)`` stream.
    :meth:`run_until` merges the lane heads with the heap top and the
    same-time FIFO lane, which reproduces the exact total order the base
    scheduler would produce had the entries been heap-pushed — unique
    sequence numbers make every comparison decisive before the callback
    slot.  Unlike heap/ready entries, a lane entry's last slot is the bare
    callback argument (always exactly one on the per-packet chain), saving
    an args tuple per event.
    """

    __slots__ = ("_lanes", "_lane_by_delay", "_heap_version")

    def __init__(self, start_time: float = 0.0) -> None:
        super().__init__(start_time)
        self._lanes: list[deque[list[Any]]] = []
        self._lane_by_delay: dict[float, deque[list[Any]]] = {}
        #: Bumped on every heap push.  The two-lane dispatch loop caches the
        #: heap head's timestamp and only re-reads the heap when this moves,
        #: turning the per-event heap inspection into one float compare.
        #: (Cancellation does not bump it: a cancelled head's timestamp is
        #: still a valid lower bound on every remaining heap event, and the
        #: slow path purges it when the clock reaches that bound.)
        self._heap_version = 0

    # -- heap-push overrides: identical semantics + a version bump ---------
    def _push(
        self, time: float, callback: Callable[..., None], args: tuple[Any, ...]
    ) -> list[Any]:
        self._heap_version += 1
        return super()._push(time, callback, args)

    def post(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        now = self.now
        if time <= now:
            if time < now - 1e-12:
                raise SimulationError(
                    f"cannot schedule event at t={time:.9f} before now={now:.9f}"
                )
            self._ready.append([now, self._sequence, callback, args])
        else:
            heappush(self._heap, [time, self._sequence, callback, args])
            self._heap_version += 1
        self._sequence += 1
        self._pending += 1

    def post_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        if delay == 0:
            self._ready.append([self.now, self._sequence, callback, args])
        else:
            heappush(self._heap, [self.now + delay, self._sequence, callback, args])
            self._heap_version += 1
        self._sequence += 1
        self._pending += 1

    def post_entry_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> list[Any]:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        entry = [self.now + delay, self._sequence, callback, args]
        self._sequence += 1
        heappush(self._heap, entry)
        self._heap_version += 1
        self._pending += 1
        return entry

    def lane(self, delay: float) -> deque[list[Any]]:
        """The shared lane for ``delay``-ahead appends (created on first use).

        Callers append ``[self.now + delay, self._sequence, callback, arg]``
        and bump ``_sequence`` themselves — the whole point of a lane is
        that the append is inlined into the per-packet closures.  Lane
        entries are *not* counted into ``_pending``; ``events_pending``
        derives their share from the lane lengths instead, keeping two
        counter updates off every fused append/dispatch pair.  ``delay``
        must be the exact float the caller adds to ``now`` on every append
        (lane sortedness depends on it being constant).
        """
        if delay <= 0.0:
            raise SimulationError(f"lane delay must be positive, got {delay!r}")
        found = self._lane_by_delay.get(delay)
        if found is not None:
            return found
        created: deque[list[Any]] = deque()
        self._lane_by_delay[delay] = created
        self._lanes.append(created)
        return created

    # ------------------------------------------------------------------ inspection
    @property
    def events_pending(self) -> int:
        """Scheduled-but-unexecuted events, lane entries included."""
        pending = self._pending
        for lane in self._lanes:
            pending += len(lane)
        return pending

    def peek_time(self) -> Optional[float]:
        best = super().peek_time()
        for lane in self._lanes:
            if lane and (best is None or lane[0][0] < best):
                best = lane[0][0]
        return best

    # ------------------------------------------------------------------ execution
    def step(self) -> bool:
        heap = self._heap
        while heap and heap[0][2] is None:
            _heappop(heap)
        ready = self._ready
        while ready and ready[0][2] is None:
            ready.popleft()
        best_lane: Optional[deque[list[Any]]] = None
        for lane in self._lanes:
            if lane and (best_lane is None or lane[0] < best_lane[0]):
                best_lane = lane
        if best_lane is None:
            return super().step()
        base_head: Optional[list[Any]] = None
        if ready:
            base_head = heap[0] if heap and heap[0] < ready[0] else ready[0]
        elif heap:
            base_head = heap[0]
        if base_head is not None and base_head < best_lane[0]:
            return super().step()
        entry = best_lane.popleft()
        self.now = entry[0]
        self._processed += 1
        entry[2](entry[3])
        return True

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Lane-merging dispatch loop (see :meth:`EventScheduler.run_until`).

        Identical contract and execution order; the only differences are
        where due entries come from (heap, same-time FIFO, or a
        constant-delay lane) and that lane entries dispatch with a bare
        argument instead of an args tuple.  The dominant configuration —
        exactly two lanes (one shared one-way delay plus the serialization
        lane) — runs a straight-line specialization that scans the lane
        heads without an iterator.
        """
        if len(self._lanes) == 2:
            return self._run_until_two(end_time, max_events)
        heap = self._heap
        ready = self._ready
        lanes = self._lanes
        pop = _heappop
        limit = -1 if max_events is None else max_events
        executed = 0
        executed_base = 0  # heap/ready dispatches (the _pending-counted ones)
        batch_time = None  # timestamp currently being dispatched
        try:
            while True:
                # Select the (time, sequence) minimum across the lane heads,
                # the same-time FIFO lane and the heap top.  Sequence numbers
                # are unique, so comparisons never reach the callback slot.
                best: Optional[list[Any]] = None
                src: Any = None
                for lane in lanes:
                    if lane:
                        head = lane[0]
                        if best is None or head < best:
                            best = head
                            src = lane
                while ready and ready[0][2] is None:  # lazily cancelled
                    ready.popleft()
                if ready:
                    head = ready[0]
                    if best is None or head < best:
                        best = head
                        src = ready
                while heap:
                    head = heap[0]
                    if head[2] is None:  # lazily cancelled
                        pop(heap)
                        continue
                    if best is None or head < best:
                        best = head
                        src = heap
                    break
                if best is None:
                    break
                time = best[0]
                if time != batch_time:
                    if time > end_time:
                        break
                    batch_time = time
                    self.now = time
                if executed == limit:
                    raise EventCapExceeded(
                        f"exceeded max_events={max_events} before reaching t={end_time}"
                    )
                if src is heap:
                    pop(heap)
                    callback = best[2]
                    best[2] = None  # mark executed so a late cancel() is a no-op
                    executed += 1
                    executed_base += 1
                    callback(*best[3])
                elif src is ready:
                    ready.popleft()
                    callback = best[2]
                    best[2] = None
                    executed += 1
                    executed_base += 1
                    callback(*best[3])
                else:
                    # Lane entries are internal: never cancelled, no handle
                    # observes them, and slot 3 is the bare argument.
                    src.popleft()
                    executed += 1
                    best[2](best[3])
        finally:
            self._processed += executed
            self._pending -= executed_base
        if end_time > self.now:
            self.now = end_time
        return executed

    def _run_until_two(self, end_time: float, max_events: Optional[int]) -> int:
        """:meth:`run_until` specialized for exactly two lanes.

        Same selection logic with the lane scan unrolled into straight-line
        head comparisons, plus the heap-head cache: the heap's minimum
        timestamp only changes on a push (versioned) or a pop (done here),
        so the per-event heap inspection is one float compare against a
        cached bound.  A lane head strictly earlier than the bound cannot be
        outrun by any heap entry; ties and later lane heads take the slow
        path, which does the full ``(time, sequence)`` merge.
        """
        heap = self._heap
        ready = self._ready
        lane_a, lane_b = self._lanes
        pop = _heappop
        limit = -1 if max_events is None else max_events
        executed = 0
        executed_base = 0  # heap/ready dispatches (the _pending-counted ones)
        batch_time = None  # timestamp currently being dispatched
        cached_version = self._heap_version - 1  # force the initial read
        heap_time = 0.0
        heap_live = False
        try:
            while True:
                if lane_a:
                    best: Optional[list[Any]] = lane_a[0]
                    src: Any = lane_a
                    if lane_b:
                        head = lane_b[0]
                        if head < best:
                            best = head
                            src = lane_b
                elif lane_b:
                    best = lane_b[0]
                    src = lane_b
                else:
                    best = None
                    src = None
                if not ready:
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
                    if best is not None and (not heap_live or best[0] < heap_time):
                        # Fast path: a lane entry is strictly first.
                        time = best[0]
                        if time != batch_time:
                            if time > end_time:
                                break
                            batch_time = time
                            self.now = time
                        if executed == limit:
                            raise EventCapExceeded(
                                f"exceeded max_events={max_events} "
                                f"before reaching t={end_time}"
                            )
                        src.popleft()
                        executed += 1
                        best[2](best[3])
                        continue
                # Slow path: the ready lane or the heap head may be due.
                while ready and ready[0][2] is None:  # lazily cancelled
                    ready.popleft()
                if ready:
                    head = ready[0]
                    if best is None or head < best:
                        best = head
                        src = ready
                while heap:
                    head = heap[0]
                    if head[2] is None:  # lazily cancelled
                        pop(heap)
                        continue
                    if best is None or head < best:
                        best = head
                        src = heap
                    break
                if best is None:
                    break
                time = best[0]
                if time != batch_time:
                    if time > end_time:
                        break
                    batch_time = time
                    self.now = time
                if executed == limit:
                    raise EventCapExceeded(
                        f"exceeded max_events={max_events} before reaching t={end_time}"
                    )
                if src is lane_a or src is lane_b:
                    src.popleft()
                    executed += 1
                    best[2](best[3])
                elif src is heap:
                    pop(heap)
                    cached_version -= 1  # head changed: force a re-read
                    callback = best[2]
                    best[2] = None  # mark executed so a late cancel() is a no-op
                    executed += 1
                    executed_base += 1
                    callback(*best[3])
                else:
                    ready.popleft()
                    callback = best[2]
                    best[2] = None
                    executed += 1
                    executed_base += 1
                    callback(*best[3])
        finally:
            self._processed += executed
            self._pending -= executed_base
        if end_time > self.now:
            self.now = end_time
        return executed


class SimulationKernel:
    """Interface every simulation kernel implements.

    The contract, in lifecycle order:

    * :meth:`supports` — static capability check against a topology spec.
      ``None`` means the kernel can drive it; a string is the human-readable
      reason it cannot (used verbatim in error messages).
    * :meth:`create_scheduler` — the event scheduler the simulation is built
      around.  Construction happens *before* any topology wiring, so a
      kernel cannot perturb the build's rng draw order.
    * :meth:`finalize` — called once the simulation is fully built (network,
      flows, instrumentation).  This is where a specialized kernel may
      rebind per-packet wiring; it must preserve the exact event order,
      float arithmetic and event counts of the generic wiring.
    * :meth:`run` — drive the scheduler for the run; returns the number of
      events executed.
    """

    #: Stable identifier, also the ``Simulation(kernel=...)`` spelling.
    name = "kernel"

    @classmethod
    def supports(cls, spec: "TopologySpec") -> Optional[str]:
        """``None`` if this kernel can drive ``spec``, else the reason not."""
        raise NotImplementedError

    def create_scheduler(self) -> EventScheduler:
        raise NotImplementedError

    def finalize(self, sim: "Simulation") -> None:
        """Hook run after the simulation is built; default: nothing."""

    def run(
        self,
        scheduler: EventScheduler,
        end_time: float,
        max_events: Optional[int] = None,
    ) -> int:
        # Cyclic GC is pure overhead on the per-packet path of every kernel
        # (event entries and AckInfo tuples die young and acyclically);
        # pausing it is observationally free.  Restore the caller's setting
        # either way.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            return scheduler.run_until(end_time, max_events=max_events)
        finally:
            if was_enabled:
                gc.enable()


class GenericKernel(SimulationKernel):
    """Today's heap + same-time-FIFO engine; supports every topology.

    Bit-identical to the pre-kernel engine by construction: it creates the
    plain :class:`EventScheduler` and leaves the topology's wiring alone.
    """

    name = "generic"

    @classmethod
    def supports(cls, spec: "TopologySpec") -> Optional[str]:
        return None

    def create_scheduler(self) -> EventScheduler:
        return EventScheduler()


class FlatKernel(SimulationKernel):
    """Specialized single-bottleneck dumbbell engine (see module docstring)."""

    name = "flat"

    @classmethod
    def supports(cls, spec: "TopologySpec") -> Optional[str]:
        if not isinstance(spec, NetworkSpec):
            return (
                "multi-hop path topologies schedule per-hop delays the flat "
                "kernel's single fused bottleneck chain cannot express"
            )
        if spec.delivery_trace is not None:
            return (
                "trace-driven links schedule delivery opportunities at "
                "irregular trace instants, not a constant serialization delay"
            )
        return None

    def create_scheduler(self) -> EventScheduler:
        return FlatScheduler()

    def finalize(self, sim: "Simulation") -> None:
        """Fuse the dumbbell's per-packet chain onto the scheduler's lanes.

        The simulation was built by the generic wiring (same constructor
        order, same rng draws); this pass only *rebinds* the hop callbacks —
        link serialization, data delivery, ACK return — to closures that
        inline the successor scheduling.  Each closure mirrors its generic
        counterpart line for line (same expressions, same order), which the
        golden matrix and the kernel-parity sweep pin.
        """
        network = sim.network
        if not isinstance(network, DumbbellNetwork):  # pragma: no cover - guarded
            raise KernelUnsupportedError(
                "flat kernel finalize reached a non-dumbbell network; "
                "the supports() capability check should have rejected it"
            )
        scheduler = sim.scheduler
        assert isinstance(scheduler, FlatScheduler)
        link = network.bottleneck
        assert isinstance(link, ConstantRateLink)
        unfused_receive = link.receive  # bound method, compared below

        # Fused bottleneck: dequeue/serialize appends to the serialization
        # lane, delivery appends to the flow's one-way lane through the
        # struct-of-arrays route table (filled below — the closures index it
        # at dispatch time, never during finalize).  DropTail (and its
        # InfiniteQueue subclass) additionally inline the FIFO bookkeeping;
        # other disciplines keep their enqueue/dequeue calls.
        routes: list[_Route] = [None] * len(network.flows)  # type: ignore[list-item]
        queue = link.queue
        mss = sim.spec.mss_bytes
        ser_lane = scheduler.lane(mss * 8 / link.rate_bps)
        plain_fifo = (
            isinstance(queue, DropTailQueue)
            and type(queue).enqueue is DropTailQueue.enqueue
            and type(queue).dequeue is DropTailQueue.dequeue
        )
        droptail_queue: Optional[DropTailQueue] = None
        if plain_fifo:
            assert isinstance(queue, DropTailQueue)
            droptail_queue = queue
            fused_start = _fused_start_droptail(scheduler, link, queue, ser_lane, mss)
            fused_receive = _fused_receive_droptail(scheduler, link, queue)
            fused_finish = _fused_finish_droptail(
                scheduler, link, queue, ser_lane, mss, routes
            )
        else:
            fused_start = _fused_start_generic(scheduler, link, queue, ser_lane, mss)
            fused_receive = _fused_receive_generic(scheduler, link, queue)
            fused_finish = _fused_finish(scheduler, link, routes)
        link._start_transmission = fused_start  # type: ignore[method-assign]
        link._finish_transmission = fused_finish  # type: ignore[method-assign]
        link.receive = fused_receive  # type: ignore[method-assign]
        link.deliver = _fused_deliver(scheduler, routes)
        for endpoints in network.flows.values():
            # Loss-free senders transmit straight into the bottleneck; the
            # lossy gate keeps its Bernoulli draw and reaches the fused
            # ``receive`` through the rebound instance attribute.
            if endpoints.sender.transmit == unfused_receive:
                endpoints.sender.transmit = fused_receive

        # Per-flow fusing: the sender's ACK fast path and the receiver's
        # delivery/ACK-return chain.  An instrumented flow (the invariant
        # sanitizer shadows ``on_ack``/``on_packet`` with counting wrappers)
        # keeps its wrappers — only the ACK emission is lane-posted — and is
        # bit-identical either way.
        for flow_id, endpoints in network.flows.items():
            one_way = endpoints.rtt / 2
            flow_lane = scheduler.lane(one_way)
            sender = endpoints.sender
            receiver = endpoints.receiver
            if "on_ack" not in sender.__dict__:
                # The send-side enqueue can only be inlined for loss-free
                # senders feeding the un-overridden DropTail directly; lossy
                # gates and AQM disciplines keep the ``transmit`` call.
                if droptail_queue is not None and sender.transmit is fused_receive:
                    send_inline = (link, droptail_queue)
                else:
                    send_inline = None
                fused = _fused_sender_on_ack(scheduler, sender, send_inline)
                sender.on_ack = fused  # type: ignore[method-assign]
                # Paced sends re-enter the same closure (called with no ACK).
                sender._pacing_fire = fused  # type: ignore[method-assign]
            on_ack = sender.on_ack
            receiver.send_ack = _ack_lane_poster(scheduler, flow_lane, one_way, on_ack)
            if "on_packet" in receiver.__dict__:
                deliver_cb = receiver.on_packet
            else:
                deliver_cb = _fused_on_packet(scheduler, receiver, flow_lane, one_way, on_ack)
                receiver.on_packet = deliver_cb  # type: ignore[method-assign]
            routes[flow_id] = (one_way, flow_lane, deliver_cb)


# --------------------------------------------------------------------------
# Fused-closure factories.  Each mirrors its generic counterpart line for
# line — same expressions, same evaluation order, same counter updates — so
# a flat run executes the identical float program.  The generic originals
# are: ``Receiver.on_packet``, ``DumbbellNetwork._deliver_data``,
# ``ConstantRateLink._start_transmission`` / ``_finish_transmission`` /
# ``receive`` and ``DropTailQueue.enqueue`` / ``dequeue``.
# --------------------------------------------------------------------------


def _ack_lane_poster(
    scheduler: FlatScheduler,
    lane: "deque[list[Any]]",
    one_way: float,
    on_ack: Callable[[Packet], None],
) -> Callable[[Packet], None]:
    """ACK return path: ``post_after(one_way, on_ack, ack)`` as a lane append."""

    def send_ack(ack: Packet) -> None:
        lane.append([scheduler.now + one_way, scheduler._sequence, on_ack, ack])
        scheduler._sequence += 1

    return send_ack


def _fused_on_packet(
    scheduler: FlatScheduler,
    receiver: Receiver,
    lane: "deque[list[Any]]",
    one_way: float,
    on_ack: Callable[[Packet], None],
) -> Callable[[Packet], None]:
    """``Receiver.on_packet`` with ``make_ack``'s in-place pooled conversion
    and the ACK emission inlined onto the lane."""
    stats = receiver.stats
    out_of_order = receiver._out_of_order
    flow_id = receiver.flow_id  # fixed at attach time

    def on_packet(packet: Packet) -> None:
        if packet.is_ack:
            raise ValueError("receiver got an ACK packet")
        if packet.flow_id != flow_id:
            raise ValueError(
                f"receiver for flow {flow_id} got packet of flow {packet.flow_id}"
            )
        seq = packet.seq
        next_expected = receiver.next_expected
        if seq >= next_expected and seq not in out_of_order:
            stats.bytes_received += packet.size_bytes
            stats.packets_received += 1
            if seq == next_expected:
                next_expected += 1
                while next_expected in out_of_order:
                    out_of_order.discard(next_expected)
                    next_expected += 1
                receiver.next_expected = next_expected
            else:
                out_of_order.add(seq)
        else:
            receiver.duplicates += 1
        # In every branch above the local ``next_expected`` ends equal to
        # ``receiver.next_expected`` (updated in the in-order arm, untouched
        # otherwise), so the ACK fields read the local.
        now = scheduler.now
        if packet._pool is not None:
            # Packet.make_ack, pooled branch inlined: the dead data packet
            # is converted into its acknowledgment in place.
            packet.size_bytes = ACK_PACKET_BYTES
            packet.is_ack = True
            packet.ack_seq = next_expected
            packet.sacked_seq = seq
            packet.echo_sent_time = packet.sent_time
            packet.sent_time = now
            packet.receiver_time = now
            packet.ecn_echo = packet.ecn_marked
            packet.ecn_capable = False
            packet.ecn_marked = False
            packet.enqueue_time = 0.0
            ack = packet
        else:
            ack = packet.make_ack(ack_seq=next_expected, receiver_time=now)
        lane.append([now + one_way, scheduler._sequence, on_ack, ack])
        scheduler._sequence += 1

    return on_packet


def _fused_sender_on_ack(
    scheduler: FlatScheduler,
    sender: Sender,
    send_inline: Optional[tuple[ConstantRateLink, DropTailQueue]] = None,
) -> Callable[..., None]:
    """``Sender.on_ack`` with ``_maybe_send``/``_send_one`` inlined.

    One closure replaces the per-acknowledgment chain of four frames
    (``on_ack`` → ``_update_recovery_state`` → ``_maybe_send`` →
    ``_send_one``), with the flow's stable per-flow state — the in-flight
    map, the flight frontier, the stats block, the congestion module, the
    transmit sink — captured as closure cells.  Called with no ACK it is
    ``Sender._pacing_fire``: the pacing timer skips the acknowledgment half
    and falls into the same send loop.  Mutable scalars (sequence
    counters, RTT estimator, recovery flags, timers) stay on the sender
    instance: the cold paths (``_switch_on``/``_switch_off``, RTO fire)
    still run the generic methods and must see the same state.  The
    packet pool's recycle/release fast paths are inlined too (debug pools
    fall back to the methods so leak tracking still observes every packet).
    When ``send_inline`` names the loss-free DropTail bottleneck the sender
    transmits into, the tail-drop enqueue is inlined in place of the
    ``transmit`` call.  Every expression mirrors the generic body in
    evaluation order, which the golden matrix pins.
    """
    cc = sender.cc
    cc_on_ack = cc.on_ack
    stats = sender.stats
    in_flight = sender.in_flight
    frontier = sender._flight_frontier
    transmit = sender.transmit  # the fused bottleneck receive (or loss gate)
    pool = sender.pool
    mss_bytes = sender.mss_bytes
    flow_id = sender.flow_id
    trace_sequence = sender.trace_sequence
    cc_observes_sends = sender._cc_observes_sends
    uses_ecn = cc.uses_ecn  # class-level constant on every protocol
    tuple_new = tuple.__new__
    sent_new = _SentInfo.__new__
    assert transmit is not None  # attach_flow wired it before finalize
    if send_inline is not None:
        link, queue = send_inline
        fifo = queue._queue
        capacity_packets = queue.capacity_packets  # fixed at construction
        # Seal check of an armed link, frozen at fuse time (``seal_drain``
        # is 0.0 on every other link, which skips it).
        seal_drain = link._seal_drain
        seal_budget = link._seal_budget
    else:
        link = queue = fifo = None  # type: ignore[assignment]
        capacity_packets = 0
        seal_drain = seal_budget = 0.0
    # Pool fast paths are only inlined for non-debug pools: the debug pool's
    # identity tracking must observe every allocate/release.  Debug-ness is
    # fixed at pool construction, so checking once at fuse time is safe.
    if pool is not None and pool._live is None:
        fast_pool: Optional[PacketPool] = pool
        fast_free: Optional[list[Packet]] = pool._free
    else:
        fast_pool = None
        fast_free = None

    def on_ack(ack: Optional[Packet] = None) -> None:
        if ack is None:
            # Pacing timer (``Sender._pacing_fire`` is rebound to this
            # closure): no acknowledgment half, straight to the send loop.
            sender._pacing_event = None
            if sender.state != "on":
                return
            now = scheduler.now
            rq = sender.retransmit_queue
        else:
            if not ack.is_ack:
                raise ValueError("sender got a data packet")
            if sender.state != "on":
                ack.release()  # stale ACK from an abandoned flow
                return
            if ack.echo_sent_time < sender.on_start_time:
                ack.release()  # stale ACK from a previous on-period
                return
            now = scheduler.now

            ack_seq = ack.ack_seq
            newly_acked_bytes = 0
            while frontier and frontier[0] < ack_seq:
                info = in_flight.pop(heappop(frontier), None)
                if info is not None:
                    newly_acked_bytes += info.size_bytes
            info = in_flight.pop(ack.sacked_seq, None)
            if info is not None:
                newly_acked_bytes += info.size_bytes
            # ``rq`` aliases ``sender.retransmit_queue`` for the rest of the
            # call: every mutation below is in place (or rebinds both), and the
            # cold helpers (``_fast_retransmit``) only mutate in place.
            rq = sender.retransmit_queue
            if rq:
                sender.retransmit_queue = rq = deque(s for s in rq if s >= ack_seq)

            # RTT estimation (Karn's rule: ignore retransmitted segments).
            rtt: Optional[float] = None
            if not ack.retransmit:
                rtt = now - ack.echo_sent_time
                if rtt > 0:
                    min_rtt = sender.min_rtt
                    if min_rtt is None or rtt < min_rtt:
                        sender.min_rtt = rtt
                    srtt = sender.srtt
                    if srtt is None:
                        sender.srtt = rtt
                        sender.rttvar = rtt / 2
                        rto = rtt + 4 * (rtt / 2)
                    else:
                        sender.rttvar = rttvar = (
                            0.75 * sender.rttvar + 0.25 * abs(srtt - rtt)
                        )
                        sender.srtt = srtt = 0.875 * srtt + 0.125 * rtt
                        rto = srtt + 4 * rttvar
                    sender.rto = (
                        MAX_RTO if rto > MAX_RTO else (MIN_RTO if rto < MIN_RTO else rto)
                    )
                    stats.rtt_sum += rtt
                    stats.rtt_count += 1
                    if stats.min_rtt is None or rtt < stats.min_rtt:
                        stats.min_rtt = rtt

            is_duplicate = ack_seq <= sender.highest_cum_ack
            # _update_recovery_state, inlined.
            if not is_duplicate:
                sender.highest_cum_ack = ack_seq
                sender.dup_count = 0
                if sender.in_recovery:
                    if ack_seq > sender.recovery_point:
                        sender.in_recovery = False
                    elif ack_seq in in_flight and ack_seq not in rq:
                        rq.appendleft(ack_seq)
            else:
                sender.dup_count += 1
                if sender.dup_count >= DUPACK_THRESHOLD and not sender.in_recovery:
                    sender._fast_retransmit(ack_seq, now)

            cc_on_ack(
                tuple_new(
                    AckInfo,
                    (
                        now,
                        ack.sacked_seq,
                        ack_seq,
                        newly_acked_bytes,
                        rtt,
                        sender.min_rtt,
                        ack.echo_sent_time,
                        ack.receiver_time,
                        ack.ecn_echo,
                        len(in_flight),
                        ack.xcp_feedback,
                        is_duplicate,
                    ),
                )
            )

            if trace_sequence:
                stats.sequence_trace.append((now, ack_seq))

            ack_pool = ack._pool
            if ack_pool is not None:
                if ack_pool._live is None:
                    # PacketPool.release, non-debug branch inlined.
                    ack_pool.released += 1
                    ack_pool._free.append(ack)
                else:
                    ack_pool.release(ack)

            if sender.segments_remaining == 0 and not in_flight and not rq:
                sender._switch_off()
                return

            if in_flight:
                sender._rto_deadline = deadline = now + sender.rto
                entry = sender._rto_event
                if entry is None or entry[2] is None or entry[0] > deadline:
                    sender._arm_rto(restart=True)
            else:
                entry = sender._rto_event
                if entry is not None:
                    scheduler.cancel_entry(entry)
                sender._rto_event = None

        # _maybe_send, inlined for as long as the sender feeds the sink
        # captured above (the state is still "on" here: only _switch_off,
        # which returned, leaves it).  A sealed sender — ``Sender.seal``
        # swapped or cleared its ``transmit`` — takes the generic method.
        if sender.transmit is not transmit:
            sender._maybe_send()
            return
        retransmit_queue = rq
        while True:
            if not retransmit_queue:
                remaining = sender.segments_remaining
                if remaining is not None and remaining <= 0:
                    return
                window = cc.cwnd
                if len(in_flight) >= (window if window > 1.0 else 1.0):
                    return
            intersend = cc.intersend_time
            if intersend > 0:
                next_allowed = sender.last_send_time + intersend
                if now < next_allowed - 1e-12:
                    sender._schedule_pacing(next_allowed)
                    return
            # _send_one, inlined.
            if retransmit_queue:
                seq = retransmit_queue.popleft()
                retransmit = True
            else:
                seq = sender.next_seq
                sender.next_seq = seq + 1
                if sender.segments_remaining is not None:
                    sender.segments_remaining -= 1
                retransmit = False
            if fast_free:
                # PacketPool.data, freelist-hit branch inlined (non-debug).
                # ``retransmit``/``ecn_capable`` resets are folded into the
                # unconditional stores a few lines down.
                assert fast_pool is not None
                packet = fast_free.pop()
                fast_pool.recycled += 1
                packet.flow_id = flow_id
                packet.seq = seq
                packet.size_bytes = mss_bytes
                packet.sent_time = now
                packet.first_sent_time = now
                packet.is_ack = False
                packet.ack_seq = -1
                packet.sacked_seq = -1
                packet.echo_sent_time = 0.0
                packet.ecn_marked = False
                packet.ecn_echo = False
                packet.enqueue_time = 0.0
                packet.xcp_cwnd = 0.0
                packet.xcp_rtt = 0.0
                packet.xcp_demand = 0.0
                packet.xcp_feedback = 0.0
                packet.receiver_time = 0.0
            elif pool is not None:
                packet = pool.data(flow_id, seq, mss_bytes, now)
            else:
                packet = Packet(flow_id, seq, size_bytes=mss_bytes, sent_time=now)
            packet.retransmit = retransmit
            packet.ecn_capable = uses_ecn
            info = in_flight.get(seq)
            if info is not None and retransmit:
                packet.first_sent_time = info.first_sent_time
                info.sent_time = now
                info.retransmitted = True
            else:
                # _SentInfo built by slot stores: same values, no dataclass
                # __init__ frame per sent packet.
                info = sent_new(_SentInfo)
                info.sent_time = now
                info.first_sent_time = now
                info.retransmitted = retransmit
                info.size_bytes = mss_bytes
                in_flight[seq] = info
                heappush(frontier, seq)
            stats.packets_sent += 1
            if retransmit:
                stats.retransmissions += 1
            if cc_observes_sends:
                cc.on_packet_sent(packet, now)
            sender.last_send_time = now
            if fifo is None:
                transmit(packet)
            elif len(fifo) >= capacity_packets:
                # DropTail receive, inlined: tail overflow drops the packet.
                queue.drops += 1
                packet.release()
            else:
                packet.enqueue_time = now
                fifo.append(packet)
                queue._bytes = queued = queue._bytes + mss_bytes
                queue.enqueues += 1
                if not link._busy:
                    link._start_transmission()
                if seal_drain and queued > seal_budget - now * seal_drain:
                    # ConstantRateLink._receive_sealable's check, inlined:
                    # this enqueue drowned the link.  Sealing swaps every
                    # sender's ``transmit``, so finish this send and hand
                    # the rest of the loop to the generic method.
                    link.seal()
                    entry = sender._rto_event
                    if entry is None or entry[2] is None:
                        sender._arm_rto()
                    sender._maybe_send()
                    return
            entry = sender._rto_event
            if entry is None or entry[2] is None:
                sender._arm_rto()

    return on_ack


def _fused_deliver(
    scheduler: FlatScheduler, routes: list[_Route]
) -> Callable[[Packet], None]:
    """``DumbbellNetwork._deliver_data`` over the struct-of-arrays routes."""

    def deliver(packet: Packet) -> None:
        try:
            route = routes[packet.flow_id]
        except IndexError:
            packet.release()  # packet from a detached flow (should not happen)
            return
        lane = route[1]
        lane.append([scheduler.now + route[0], scheduler._sequence, route[2], packet])
        scheduler._sequence += 1

    return deliver


def _fused_finish(
    scheduler: FlatScheduler, link: ConstantRateLink, routes: list[_Route]
) -> Callable[[Packet], None]:
    """``ConstantRateLink._finish_transmission``: emit + deliver + successor.

    The dumbbell bottleneck has zero propagation delay, so delivery is the
    one-way lane append; the run-to-completion successor dequeue goes
    through the (rebound) ``_start_transmission`` instance attribute.
    """

    def finish_transmission(packet: Packet) -> None:
        link.packets_delivered += 1
        link.bytes_delivered += packet.size_bytes
        try:
            route = routes[packet.flow_id]
        except IndexError:
            packet.release()  # packet from a detached flow (should not happen)
        else:
            route[1].append(
                [scheduler.now + route[0], scheduler._sequence, route[2], packet]
            )
            scheduler._sequence += 1
        link._start_transmission()

    return finish_transmission


def _fused_finish_droptail(
    scheduler: FlatScheduler,
    link: ConstantRateLink,
    queue: DropTailQueue,
    ser_lane: "deque[list[Any]]",
    mss_bytes: int,
    routes: list[_Route],
) -> Callable[[Packet], None]:
    """:func:`_fused_finish` with the DropTail successor dequeue inlined.

    The run-to-completion successor — pop the FIFO head, record its queueing
    delay, start its serialization — is the body of
    :func:`_fused_start_droptail` pasted in place of the
    ``_start_transmission()`` call, saving one frame per delivered packet.
    """
    fifo = queue._queue
    rate_bps = link.rate_bps
    # Identity-stable references, fixed before finalize runs: the dumbbell
    # assigns ``delay_stats`` once at construction (and mutates the dict in
    # place), and dumbbell bottlenecks never carry per-hop accumulators.
    # ``delay_observer`` stays a call-time read (tests attach it late).
    stats_map = link.delay_stats
    hop_map = link.hop_delay_stats

    def finish_transmission(packet: Packet) -> None:
        now = scheduler.now
        link.packets_delivered += 1
        link.bytes_delivered += packet.size_bytes
        try:
            route = routes[packet.flow_id]
        except IndexError:
            packet.release()  # packet from a detached flow (should not happen)
        else:
            route[1].append([now + route[0], scheduler._sequence, route[2], packet])
            scheduler._sequence += 1
        if not fifo:
            link._busy = False
            return
        packet = fifo.popleft()
        size_bytes = packet.size_bytes
        queue._bytes -= size_bytes
        queue.dequeues += 1
        if link.delay_observer is not None:
            link.delay_observer(packet, max(0.0, now - packet.enqueue_time))
        elif stats_map is not None:
            stats = stats_map.get(packet.flow_id)
            if stats is not None:
                delay = now - packet.enqueue_time
                if delay < 0.0:
                    delay = 0.0
                stats.queue_delay_sum += delay
                stats.queue_delay_count += 1
                if delay > stats.max_queue_delay:
                    stats.max_queue_delay = delay
                if hop_map is not None:
                    hop = hop_map.get(packet.flow_id)
                    if hop is not None:
                        hop.delay_sum += delay
                        hop.count += 1
                        if delay > hop.max_delay:
                            hop.max_delay = delay
        link._busy = True
        if size_bytes == mss_bytes:
            # ``finish_transmission`` is the link's own (rebound)
            # ``_finish_transmission``; self-referencing the closure skips
            # the attribute read the generic body pays.
            ser_lane.append(
                [
                    now + size_bytes * 8 / rate_bps,
                    scheduler._sequence,
                    finish_transmission,
                    packet,
                ]
            )
            scheduler._sequence += 1
        else:
            scheduler.post_after(
                size_bytes * 8 / rate_bps, finish_transmission, packet
            )

    return finish_transmission


def _delay_stats_update(
    link: ConstantRateLink, packet: Packet, now: float
) -> None:
    """The generic link's inlined queueing-delay bookkeeping, shared by both
    fused ``_start_transmission`` variants (identical expression order)."""
    if link.delay_observer is not None:
        link.delay_observer(packet, max(0.0, now - packet.enqueue_time))
        return
    stats_map = link.delay_stats
    if stats_map is not None:
        stats = stats_map.get(packet.flow_id)
        if stats is not None:
            delay = now - packet.enqueue_time
            if delay < 0.0:
                delay = 0.0
            stats.queue_delay_sum += delay
            stats.queue_delay_count += 1
            if delay > stats.max_queue_delay:
                stats.max_queue_delay = delay
            hop_map = link.hop_delay_stats
            if hop_map is not None:
                hop = hop_map.get(packet.flow_id)
                if hop is not None:
                    hop.delay_sum += delay
                    hop.count += 1
                    if delay > hop.max_delay:
                        hop.max_delay = delay


def _fused_start_droptail(
    scheduler: FlatScheduler,
    link: ConstantRateLink,
    queue: DropTailQueue,
    ser_lane: "deque[list[Any]]",
    mss_bytes: int,
) -> Callable[[], None]:
    """``_start_transmission`` with the DropTail dequeue inlined.

    Precondition (checked at fuse time): un-overridden DropTail
    enqueue/dequeue, so the FIFO pop is the whole dequeue story.  The
    delay-observer/delay-stats precedence is read at call time exactly like
    the generic body (a test may attach an observer after construction).
    """
    fifo = queue._queue
    rate_bps = link.rate_bps
    stats_map = link.delay_stats  # identity-stable (see _fused_finish_droptail)
    hop_map = link.hop_delay_stats

    def start_transmission() -> None:
        if not fifo:
            link._busy = False
            return
        packet = fifo.popleft()
        size_bytes = packet.size_bytes
        queue._bytes -= size_bytes
        queue.dequeues += 1
        now = scheduler.now
        if link.delay_observer is not None:
            link.delay_observer(packet, max(0.0, now - packet.enqueue_time))
        elif stats_map is not None:
            stats = stats_map.get(packet.flow_id)
            if stats is not None:
                delay = now - packet.enqueue_time
                if delay < 0.0:
                    delay = 0.0
                stats.queue_delay_sum += delay
                stats.queue_delay_count += 1
                if delay > stats.max_queue_delay:
                    stats.max_queue_delay = delay
                if hop_map is not None:
                    hop = hop_map.get(packet.flow_id)
                    if hop is not None:
                        hop.delay_sum += delay
                        hop.count += 1
                        if delay > hop.max_delay:
                            hop.max_delay = delay
        link._busy = True
        if size_bytes == mss_bytes:
            ser_lane.append(
                [
                    now + size_bytes * 8 / rate_bps,
                    scheduler._sequence,
                    link._finish_transmission,
                    packet,
                ]
            )
            scheduler._sequence += 1
        else:
            scheduler.post_after(
                size_bytes * 8 / rate_bps, link._finish_transmission, packet
            )

    return start_transmission


def _fused_receive_droptail(
    scheduler: FlatScheduler, link: ConstantRateLink, queue: DropTailQueue
) -> Callable[[Packet], None]:
    """``receive`` with the DropTail enqueue inlined (tail drop + FIFO append).

    On a link armed by ``arm_seal`` it also carries
    ``ConstantRateLink._receive_sealable``'s seal check, so both engines
    seal at the same enqueue; the parameters are frozen at fuse time
    (``seal_drain`` is 0.0 on every other link, which skips it).
    """
    fifo = queue._queue
    seal_drain = link._seal_drain
    seal_budget = link._seal_budget

    def receive(packet: Packet) -> None:
        if len(fifo) >= queue.capacity_packets:
            queue.drops += 1
            packet.release()  # drop sink: tail overflow
            return
        packet.enqueue_time = now = scheduler.now
        fifo.append(packet)
        queue._bytes = queued = queue._bytes + packet.size_bytes
        queue.enqueues += 1
        if not link._busy:
            link._start_transmission()
        if seal_drain and queued > seal_budget - now * seal_drain:
            link.seal()

    return receive


def _fused_start_generic(
    scheduler: FlatScheduler,
    link: ConstantRateLink,
    queue: QueueDiscipline,
    ser_lane: "deque[list[Any]]",
    mss_bytes: int,
) -> Callable[[], None]:
    """``_start_transmission`` for AQM disciplines: the queue keeps its own
    dequeue logic; only the successor scheduling is fused onto the lane."""
    rate_bps = link.rate_bps

    def start_transmission() -> None:
        now = scheduler.now
        packet = queue.dequeue(now)
        if packet is None:
            link._busy = False
            return
        _delay_stats_update(link, packet, now)
        link._busy = True
        size_bytes = packet.size_bytes
        if size_bytes == mss_bytes:
            ser_lane.append(
                [
                    now + size_bytes * 8 / rate_bps,
                    scheduler._sequence,
                    link._finish_transmission,
                    packet,
                ]
            )
            scheduler._sequence += 1
        else:
            scheduler.post_after(
                size_bytes * 8 / rate_bps, link._finish_transmission, packet
            )

    return start_transmission


def _fused_receive_generic(
    scheduler: FlatScheduler, link: ConstantRateLink, queue: QueueDiscipline
) -> Callable[[Packet], None]:
    """``receive`` for AQM disciplines (enqueue may drop or ECN-mark)."""

    def receive(packet: Packet) -> None:
        if queue.enqueue(packet, scheduler.now) and not link._busy:
            link._start_transmission()

    return receive


# --------------------------------------------------------------------------
# Kernel selection
# --------------------------------------------------------------------------

#: Registry of selectable kernels, by name.  ``"auto"`` is not a kernel: it
#: resolves to the first specialized kernel whose capability check accepts
#: the topology, falling back to the generic engine.
KERNELS: dict[str, type[SimulationKernel]] = {
    GenericKernel.name: GenericKernel,
    FlatKernel.name: FlatKernel,
}

KernelChoice = Union[str, SimulationKernel]


def resolve_kernel(kernel: KernelChoice, spec: "TopologySpec") -> SimulationKernel:
    """Resolve a kernel choice against a topology spec.

    * ``"auto"`` (the default everywhere) — :class:`FlatKernel` when the
      topology is flat-eligible, else :class:`GenericKernel`.
    * ``"generic"`` / ``"flat"`` — that kernel, or
      :class:`KernelUnsupportedError` when its capability check rejects the
      topology (the message names the reason and the ``"auto"`` escape).
    * a :class:`SimulationKernel` instance — used as-is after the same check.
    """
    if isinstance(kernel, SimulationKernel):
        reason = kernel.supports(spec)
        if reason is not None:
            raise KernelUnsupportedError(
                f"kernel {kernel.name!r} cannot run this topology: {reason}"
            )
        return kernel
    if kernel == "auto":
        if FlatKernel.supports(spec) is None:
            return FlatKernel()
        return GenericKernel()
    cls = KERNELS.get(kernel)
    if cls is None:
        known = ", ".join(repr(name) for name in KERNEL_NAMES)
        raise ValueError(
            f"unknown kernel {kernel!r}: expected one of {known} "
            "(or a SimulationKernel instance)"
        )
    reason = cls.supports(spec)
    if reason is not None:
        raise KernelUnsupportedError(
            f"kernel {kernel!r} cannot run this topology: {reason}; "
            "pass kernel='auto' to fall back to the generic kernel "
            "automatically"
        )
    return cls()
