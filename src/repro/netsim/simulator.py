"""Simulation driver: build a topology, run it, summarise per-flow results.

:class:`Simulation` is the top-level entry point used by the examples, the
Remy evaluator and every experiment harness.  It takes a topology spec — a
:class:`~repro.netsim.path.PathSpec`, any path with an optionally
congestible reverse direction, the paper's single-bottleneck dumbbell
(:meth:`~repro.netsim.path.PathSpec.dumbbell`) included — one
congestion-control module and one workload per flow, wires it on the one
:class:`~repro.netsim.events.EventScheduler` (the per-packet closures of
:mod:`repro.netsim.kernel`), runs the scheduler's dispatch loop for a fixed
duration and returns a :class:`SimulationResult`.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.netsim.events import EventCapExceeded, EventScheduler, SimulationError
from repro.netsim.invariants import InvariantChecker
from repro.netsim.path import PathNetwork, PathSpec
from repro.netsim.receiver import Receiver
from repro.netsim.sender import Sender, Workload
from repro.netsim.stats import FlowStats, HopDelayStats

if TYPE_CHECKING:  # type annotations only; avoids a netsim <-> protocols cycle
    from repro.protocols.base import CongestionControl


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    duration: float
    flow_stats: list[FlowStats]
    queue_drops: int = 0
    queue_marks: int = 0
    events_processed: int = 0
    #: Per-forward-hop queueing-delay attribution: one ``flow id ->``
    #: :class:`~repro.netsim.stats.HopDelayStats` map per forward hop, in
    #: chain order.  Empty for topologies with one forward hop, whose
    #: bottleneck *is* the flow-total queueing delay.
    hop_delays: list[dict[int, HopDelayStats]] = field(default_factory=list)
    #: Simulated time at which a drowned bottleneck was sealed (``None`` =
    #: never; only :attr:`~repro.netsim.path.PathSpec.sealable`
    #: topologies can).  From then on the senders stopped transmitting what
    #: could not be delivered, so ``packets_sent``, ``retransmissions``,
    #: ``timeouts``, ``losses_detected`` and ``events_processed`` count up
    #: to the seal (lower bounds on the unsealed run's); every other field
    #: is exactly what simulating those sends would have produced.
    sealed_at: Optional[float] = None
    #: ``max_events`` ran out before ``duration``: the statistics cover
    #: only the simulated prefix and must not be read as a complete run.
    truncated: bool = False

    # -- per-flow accessors ------------------------------------------------------
    def throughputs_mbps(self) -> list[float]:
        """Per-flow average throughput (Mbit/s) over each flow's on-time."""
        return [stats.throughput_mbps() for stats in self.flow_stats]

    def queue_delays_ms(self) -> list[float]:
        """Per-flow mean queueing delay (ms)."""
        return [stats.avg_queue_delay_ms() for stats in self.flow_stats]

    def active_flows(self) -> list[FlowStats]:
        """Flows that were on for some time, whether or not they received data."""
        return [stats for stats in self.flow_stats if stats.on_time > 0]

    # -- summary metrics ----------------------------------------------------------
    def median_throughput_mbps(self) -> float:
        values = [s.throughput_mbps() for s in self.active_flows()]
        return statistics.median(values) if values else 0.0

    def median_queue_delay_ms(self) -> float:
        values = [s.avg_queue_delay_ms() for s in self.active_flows() if s.queue_delay_count > 0]
        return statistics.median(values) if values else 0.0

    def mean_throughput_mbps(self) -> float:
        values = [s.throughput_mbps() for s in self.active_flows()]
        return statistics.fmean(values) if values else 0.0

    def mean_queue_delay_ms(self) -> float:
        values = [s.avg_queue_delay_ms() for s in self.active_flows() if s.queue_delay_count > 0]
        return statistics.fmean(values) if values else 0.0

    def total_bytes_received(self) -> int:
        return sum(s.bytes_received for s in self.flow_stats)

    # -- per-hop attribution ------------------------------------------------------
    def hop_delay_breakdown(self, flow_id: int) -> list[Optional[HopDelayStats]]:
        """One entry per forward hop: the flow's accumulator there, or
        ``None`` for hops the flow does not traverse.  Empty with one hop."""
        return [hop_map.get(flow_id) for hop_map in self.hop_delays]

    def hop_avg_delays_ms(self, flow_id: int) -> list[float]:
        """Mean queueing delay (ms) the flow experienced at each forward hop
        (0.0 at hops it does not traverse).  Empty with one hop."""
        return [
            hop.avg_delay_ms() if hop is not None else 0.0
            for hop in self.hop_delay_breakdown(flow_id)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationResult(T={self.duration}s, flows={len(self.flow_stats)}, "
            f"median_tput={self.median_throughput_mbps():.3f} Mbps, "
            f"median_qdelay={self.median_queue_delay_ms():.1f} ms)"
        )


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic collector for the span and restore the caller's
    setting on every exit path (nested: a no-op).  A simulation's garbage
    dies by reference count — event entries and ``AckInfo`` tuples as it
    runs, the whole graph once :meth:`Simulation.run` has cut its wiring —
    so a collection during its build or run traverses a live graph for nothing.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Simulation:
    """One run of a topology — dumbbell or multi-hop path — with a fixed
    set of flows.

    One lifecycle: build, :meth:`run` once, read.  A finished simulation
    holds data, not wiring — ``run`` ends by emptying the scheduler and
    cutting every callback between endpoints, hops and their closures, so
    dropping the object frees it by reference count alone (packets are
    plain objects, freed the same way the moment they die).  Flow
    statistics, ``cc`` state, queue/link counters, ``sealed_at`` and the
    scheduler's clock and event count stay readable.

    Parameters
    ----------
    spec:
        Topology description.
    protocols:
        One congestion-control instance per flow (length must equal
        ``spec.n_flows``).
    workloads:
        One on/off workload per flow, or ``None`` for all-always-on sources.
    duration:
        Simulated seconds.
    seed:
        Seed for every stochastic component (workload draws, RED, etc.); the
        same seed reproduces the identical packet schedule.
    trace_flows:
        Flow ids whose (time, cumulative-ack) trajectory should be recorded
        (used by the Figure 6 convergence experiment).
    max_events:
        Stop at the end of the instant in which this many events have run
        (``None``: no cap; else an int ≥ 0; the rest of that instant is
        capped at ``max_events`` again) and flag the result ``truncated``:
        its statistics are those of an uncapped run ending at that instant.
    debug_invariants:
        Arm the runtime sanitizer (:mod:`repro.netsim.invariants`):
        conservation (by a census of the packets held in queues and
        scheduled events), monotonic time and queue-accounting checks on a
        sampling schedule and at completion.  Results stay bit-identical.

    A dumbbell's FIFO bottleneck serves each data packet at enqueue, so the
    packet costs one event, its ACK (the eager path, see
    :class:`~repro.netsim.link.ConstantRateLink`); a uniform-RTT dumbbell
    posts its one-way hand-offs on the scheduler's constant-delay lane (see
    :mod:`repro.netsim.kernel`).  Two private class attributes switch those
    off for the references the parity tests compare against: a subclass
    with ``_lanes = False`` leaves the lane empty (bit-identical,
    events included), one with ``_eager = False`` keeps the finish and
    arrival events (bit-identical but for ``events_processed``).
    """

    _lanes = True
    _eager = True

    def __init__(
        self,
        spec: PathSpec,
        protocols: Sequence["CongestionControl"],
        workloads: Optional[Sequence[Optional[Workload]]] = None,
        duration: float = 100.0,
        seed: int = 0,
        trace_flows: Sequence[int] = (),
        max_events: Optional[int] = None,
        debug_invariants: bool = False,
    ) -> None:
        if len(protocols) != spec.n_flows:
            raise ValueError(
                f"got {len(protocols)} protocols for {spec.n_flows} flows"
            )
        if workloads is not None and len(workloads) != spec.n_flows:
            raise ValueError(
                f"got {len(workloads)} workloads for {spec.n_flows} flows"
            )
        if not (math.isfinite(duration) and duration > 0):
            raise ValueError(f"duration must be positive and finite, got {duration!r}")
        # The cap stops only at ``executed == max_events``: a negative or
        # fractional value would never match and silently lift it.
        if max_events is not None and not (isinstance(max_events, int) and max_events >= 0):
            raise ValueError(f"max_events must be None or an int >= 0, got {max_events!r}")
        self.spec = spec
        self.protocols = list(protocols)
        self.workloads = list(workloads) if workloads is not None else [None] * spec.n_flows
        self.duration = duration
        self.seed = seed
        self.trace_flows = set(trace_flows)
        self.max_events = max_events

        self.scheduler = EventScheduler()
        self.master_rng = random.Random(seed)
        #: The network consumes exactly one master rng draw, whatever its
        #: shape, so the per-flow random streams do not depend on it.
        self.network: PathNetwork = PathNetwork(
            self.scheduler,
            spec,
            rng=random.Random(self.master_rng.getrandbits(32)),
            lanes=self._lanes,
            eager=self._eager,
        )
        # Whether the topology can seal is the spec's own property, not a
        # choice made here.
        self.network.arm_seal(duration)
        #: Runtime sanitizer (see :mod:`repro.netsim.invariants`).  Built
        #: before the flows so its counting wrapper is in place when
        #: ``attach_flow`` captures the ACK sink.
        self.invariant_checker: Optional[InvariantChecker] = (
            InvariantChecker(self) if debug_invariants else None
        )
        self.senders: list[Sender] = []
        self.receivers: list[Receiver] = []
        self._ran = False
        self._build_flows()

    def _build_flows(self) -> None:
        for flow_id in range(self.spec.n_flows):
            stats = FlowStats(flow_id)
            flow_rng = random.Random(self.master_rng.getrandbits(32))
            sender = Sender(
                flow_id,
                self.scheduler,
                cc=self.protocols[flow_id],
                workload=self.workloads[flow_id],
                stats=stats,
                rng=flow_rng,
                trace_sequence=flow_id in self.trace_flows,
            )
            receiver = Receiver(flow_id, self.scheduler, stats=stats)
            if self.invariant_checker is not None:
                self.invariant_checker.instrument_flow(sender)
            self.network.attach_flow(flow_id, sender, receiver)
            self.senders.append(sender)
            self.receivers.append(receiver)

    def run(self) -> SimulationResult:
        """Execute the simulation, dismantle its wiring and return per-flow
        statistics.  Terminal: a second call raises."""
        if self._ran:
            raise SimulationError("a simulation runs once: build another to run again")
        self._ran = True
        end_time = self.duration
        truncated = False
        with gc_paused():
            if self.invariant_checker is not None:
                self.invariant_checker.arm()
            for sender in self.senders:
                sender.start()
            try:
                self.scheduler.run_until(end_time, max_events=self.max_events)
            except EventCapExceeded:
                # Report the prefix that was simulated, to the end of the
                # instant the cap fell in, flagged, rather than failing the
                # batch the run belongs to.
                truncated = True
                end_time = self.scheduler.now
                with suppress(EventCapExceeded):
                    self.scheduler.run_until(end_time, max_events=self.max_events)
            self.network.settle(end_time)
            for sender in self.senders:
                sender.finalize(end_time)
            if self.invariant_checker is not None:
                self.invariant_checker.final_check()
            # Cut the cycles (queued timers <-> endpoints, closures stored on
            # what they capture) so reference counting frees the graph; a
            # sanitizer keeps its one (checker <-> simulation).
            self.scheduler.clear()
            self.network.release()
        return SimulationResult(
            duration=self.duration,
            flow_stats=[sender.stats for sender in self.senders],
            queue_drops=self.network.queue_drops,
            queue_marks=self.network.queue_marks,
            events_processed=self.scheduler.events_processed,
            hop_delays=self.network.hop_delay_stats,
            sealed_at=self.network.sealed_at,
            truncated=truncated,
        )

