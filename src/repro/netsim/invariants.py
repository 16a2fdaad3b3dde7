"""Runtime invariant sanitizer: ``Simulation(debug_invariants=True)``.

The static lint pass (``tools/lint``) proves the *code* follows the
simulator's conservation and determinism rules; this module checks the
*running system* — the dynamic counterpart, in the spirit of UBSan/ASan
modes on a compiled simulator.  It verifies, on a sampling schedule and at
completion:

* **conservation** — every data packet sent is accounted for:
  ``packets_sent == drops + acks_consumed + in_flight``.  Drops are the sum
  of every queue's congestive drops plus every stochastic loss gate, in
  both directions; ``acks_consumed`` counts acknowledgments digested by the
  senders (each delivered data packet becomes exactly one ACK, so a
  consumed ACK retires one sent packet); ``in_flight`` is the debug packet
  pool's live count.  A drop path that forgets ``release()`` — the PR 3/4
  leak class — breaks the identity at the next sample;
* **monotonic scheduler time** — the clock never moves backwards between
  samples;
* **queue accounting** — every hop's byte count is non-negative (including
  the *private* accumulators that public accessors clamp, so drift of the
  sfqCoDel ``_total_bytes`` class is caught before the clamp hides it) and
  an empty queue holds zero bytes.

Failures raise :class:`InvariantViolation` with a diagnostic dump naming
the offending hop and the per-flow counters.

**Fingerprint neutrality.**  Sampling rides the event scheduler, but every
sampler callback starts with :meth:`EventScheduler.uncount_event`, reads
state without touching any rng, and re-posts itself — so
``events_processed``, all flow statistics and therefore the golden
fingerprints are bit-identical with the sanitizer on or off (the matrix
suite asserts exactly that).  Cost: two counting wrappers on the per-flow
delivery sinks plus ~:data:`DEFAULT_SAMPLES` full-state walks per run —
roughly 10-30% wall-clock on the benchmark cells, so the mode is for CI
and debugging, not for paper-scale sweeps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.netsim.events import SimulationError
from repro.netsim.packet import Packet
from repro.netsim.queue import QueueDiscipline
from repro.netsim.receiver import Receiver
from repro.netsim.sender import Sender

if TYPE_CHECKING:  # import cycle: simulator imports this module
    from repro.netsim.simulator import Simulation

#: Default number of mid-run sampling points.
DEFAULT_SAMPLES = 50

#: Private queue accumulators checked before any public clamping (name,
#: must-be-non-negative).  ``_total_bytes`` is the sfqCoDel drift class:
#: its public ``bytes_queued()`` clamps at zero, so only the raw attribute
#: reveals the bug.
_PRIVATE_ACCUMULATORS = ("_bytes", "_total_bytes", "_total_packets")


class InvariantViolation(SimulationError):
    """A runtime invariant failed; the message carries the diagnostic dump."""


class InvariantChecker:
    """Conservation/monotonicity/accounting checks for one simulation."""

    def __init__(self, simulation: "Simulation", samples: int = DEFAULT_SAMPLES) -> None:
        if samples <= 0:
            raise ValueError("samples must be positive")
        self.simulation = simulation
        self.samples = samples
        #: Acknowledgments digested by the senders (including stale ACKs a
        #: switched-off flow releases unprocessed — they left the system).
        self.acks_consumed = 0
        #: Data packets that reached their receiver (duplicates included).
        self.data_arrivals = 0
        self.checks_run = 0
        self._last_now = float("-inf")
        self._next_sample = 1

    # -- instrumentation ----------------------------------------------------
    def instrument_flow(self, sender: Sender, receiver: Receiver) -> None:
        """Install counting wrappers on the flow's two delivery sinks.

        Must run *before* the network captures ``sender.on_ack`` /
        ``receiver.on_packet`` in ``attach_flow`` (both classes are
        deliberately un-slotted, so an instance attribute shadows the bound
        method).  The wrappers only count — no rng draws, no scheduling —
        so instrumented runs stay bit-identical.
        """
        inner_on_ack = sender.on_ack

        def counted_on_ack(ack: Packet) -> None:
            inner_on_ack(ack)
            self.acks_consumed += 1

        sender.on_ack = counted_on_ack  # type: ignore[method-assign]

        inner_on_packet = receiver.on_packet

        def counted_on_packet(packet: Packet) -> None:
            self.data_arrivals += 1
            inner_on_packet(packet)

        receiver.on_packet = counted_on_packet  # type: ignore[method-assign]

    # -- scheduling ----------------------------------------------------------
    def arm(self) -> None:
        """Post the first sampling event (call once, before the run)."""
        self._post_next_sample()

    def _post_next_sample(self) -> None:
        # Sample times are computed as fractions of the duration (not by
        # accumulating a period) so float drift can neither skip the final
        # in-run sample nor push one past the horizon.
        if self._next_sample > self.samples:
            return
        when = self.simulation.duration * self._next_sample / self.samples
        self._next_sample += 1
        self.simulation.scheduler.post(when, self._sample)

    def _sample(self) -> None:
        # Sampler bookkeeping, not a simulation event: keep
        # events_processed (and with it the fingerprints) untouched.
        self.simulation.scheduler.uncount_event()
        self.check_now()
        self._post_next_sample()

    # -- checks --------------------------------------------------------------
    def _hops(self) -> list[tuple[str, QueueDiscipline]]:
        network = self.simulation.network
        return [
            (link.name, link.queue)
            for link in network.forward_links + network.reverse_links
        ]

    def _drops_total(self) -> int:
        network = self.simulation.network
        return network.queue_drops + network.link_losses

    def _packets_sent(self) -> int:
        return sum(s.stats.packets_sent for s in self.simulation.senders)

    def check_now(self) -> None:
        """Run every invariant against the current state; raise on failure."""
        self.checks_run += 1
        now = self.simulation.scheduler.now
        if now < self._last_now:
            self._fail(
                f"scheduler time moved backwards: now={now!r} after "
                f"t={self._last_now!r}"
            )
        self._last_now = now

        for hop_name, queue in self._hops():
            queued_bytes = queue.bytes_queued()
            if queued_bytes < 0:
                self._fail(
                    f"hop {hop_name!r}: negative byte count "
                    f"bytes_queued()={queued_bytes}"
                )
            if len(queue) == 0 and queued_bytes != 0:
                self._fail(
                    f"hop {hop_name!r}: empty queue reports "
                    f"{queued_bytes} queued bytes (accounting drift)"
                )
            for attr in _PRIVATE_ACCUMULATORS:
                value = getattr(queue, attr, None)
                if value is not None and value < 0:
                    self._fail(
                        f"hop {hop_name!r}: internal accumulator "
                        f"{attr}={value} went negative (clamped by the "
                        "public accessor, but the books no longer balance)"
                    )

        self._check_conservation()

    def _check_conservation(self) -> None:
        pool = self.simulation.packet_pool
        sent = self._packets_sent()
        retired = self._drops_total() + self.acks_consumed
        if pool is not None and pool.in_use is not None:
            if sent - retired != pool.in_use:
                self._fail(
                    "packet conservation violated: "
                    f"sent={sent} != drops+losses={self._drops_total()} "
                    f"+ acks_consumed={self.acks_consumed} "
                    f"+ in_flight={pool.in_use} "
                    "(a drop or delivery sink is leaking, or releasing "
                    "twice)"
                )
        elif sent < retired:
            # Without the debug pool the in-flight population is unknown,
            # but it can never be negative.
            self._fail(
                f"packet conservation violated: sent={sent} < "
                f"drops+losses={self._drops_total()} + "
                f"acks_consumed={self.acks_consumed}"
            )

    def final_check(self) -> None:
        """Completion check (call after the run and sender finalization)."""
        self.check_now()

    # -- diagnostics ---------------------------------------------------------
    def _fail(self, reason: str) -> None:
        raise InvariantViolation(f"{reason}\n{self._dump()}")

    def _dump(self) -> str:
        sim = self.simulation
        lines = [
            "--- invariant sanitizer dump ---",
            f"t={sim.scheduler.now:.9f}s of {sim.duration}s, "
            f"events={sim.scheduler.events_processed}, "
            f"checks_run={self.checks_run}",
            f"sent={self._packets_sent()} "
            f"data_arrivals={self.data_arrivals} "
            f"acks_consumed={self.acks_consumed} "
            f"queue_drops={sim.network.queue_drops} "
            f"link_losses={sim.network.link_losses}",
        ]
        pool = sim.packet_pool
        if pool is not None:
            lines.append(
                f"pool: allocated={pool.allocated} recycled={pool.recycled} "
                f"released={pool.released} in_use={pool.in_use}"
            )
        for hop_name, queue in self._hops():
            lines.append(
                f"hop {hop_name!r}: {type(queue).__name__} "
                f"len={len(queue)} bytes={queue.bytes_queued()} "
                f"drops={queue.drops} marks={queue.marks} "
                f"enq={queue.enqueues} deq={queue.dequeues}"
            )
        for sender in sim.senders:
            stats = sender.stats
            lines.append(
                f"flow {stats.flow_id}: sent={stats.packets_sent} "
                f"recv={stats.packets_received} "
                f"retx={stats.retransmissions} "
                f"losses={stats.losses_detected} timeouts={stats.timeouts} "
                f"state={sender.state!r} in_flight={len(sender.in_flight)}"
            )
        return "\n".join(lines)
