"""Runtime invariant sanitizer: ``Simulation(debug_invariants=True)``.

The static lint pass (``tools/lint``) proves the *code* follows the
simulator's conservation and determinism rules; this module checks the
*running system* — the dynamic counterpart, in the spirit of UBSan/ASan
modes on a compiled simulator.  It verifies, on a sampling schedule and at
completion:

* **conservation** — every data packet sent is accounted for:
  ``packets_sent == drops + acks_consumed + held``.  Drops are the sum
  of every queue's congestive drops plus every stochastic loss gate, in
  both directions; ``acks_consumed`` counts acknowledgments digested by the
  senders (each delivered data packet becomes exactly one ACK, so a
  consumed ACK retires one sent packet); ``held`` is a census of where
  packets sit — every hop's queue length plus the ``Packet`` arguments of
  the live heap entries and of the lane entries (a packet being serialized
  or propagated is the argument of the event that delivers it).  Behind an
  eager FIFO bottleneck (:class:`~repro.netsim.link.ConstantRateLink`) a
  packet is acknowledged when it is enqueued, so from then on it is held as
  its ACK entry's argument, and the hop's queue object stays empty (its
  backlog holds records, not packets).  The census counts where packets
  are, not what any component says it did, so a drop nobody counts or a
  packet queued twice breaks the identity at the next sample;
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
suite asserts exactly that).  Cost: one counting wrapper on each sender's
ACK sink plus ~:data:`DEFAULT_SAMPLES` full-state walks per run —
roughly 10-30% wall-clock on the benchmark cells, so the mode is for CI
and debugging, not for paper-scale sweeps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.netsim.events import SimulationError
from repro.netsim.packet import Packet
from repro.netsim.queue import QueueDiscipline
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
    """Conservation/monotonicity/accounting checks for one simulation.

    Conservation balances the senders' ``packets_sent`` against counted
    drops, consumed acknowledgments and a :meth:`census` of the packets
    held in queues and scheduled events — an exact identity at every sample.
    """

    def __init__(self, simulation: "Simulation", samples: int = DEFAULT_SAMPLES) -> None:
        if samples <= 0:
            raise ValueError("samples must be positive")
        self.simulation = simulation
        self.samples = samples
        #: Acknowledgments digested by the senders (including stale ACKs a
        #: switched-off flow drops unprocessed — they left the system).
        self.acks_consumed = 0
        #: Packets the last check's :meth:`census` found held.
        self.held = 0
        self.checks_run = 0
        self._last_now = float("-inf")
        self._next_sample = 1

    # -- instrumentation ----------------------------------------------------
    def instrument_flow(self, sender: Sender) -> None:
        """Count the acknowledgments the sender digests: a wrapper becomes
        its ACK sink, around the sender's own closure.

        Must run *before* ``attach_flow`` captures ``sender.on_ack``.  The
        wrapper only counts — no rng draws, no scheduling — so instrumented
        runs stay bit-identical.
        """

        def counted_on_ack(ack: Packet) -> None:
            sender._send(ack)
            self.acks_consumed += 1

        sender.on_ack = counted_on_ack

    @property
    def data_arrivals(self) -> int:
        """Data packets that reached their receiver (duplicates included):
        each is counted as received or as a duplicate (mid-run, an eager
        bottleneck's arrivals count from their enqueue)."""
        return sum(
            receiver.stats.packets_received + receiver.duplicates
            for receiver in self.simulation.receivers
        )

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

    def census(self) -> tuple[int, int]:
        """Packets held right now: ``(queued, scheduled)`` — in hop queues,
        and as the argument of a live heap entry or a lane entry (a lane
        entry's argument is bare, a heap entry's is an args tuple)."""
        scheduler = self.simulation.scheduler
        queued = sum(len(queue) for _, queue in self._hops())
        scheduled = sum(
            isinstance(arg, Packet)
            for entry in scheduler._heap
            if entry[2] is not None
            for arg in entry[3]
        )
        scheduled += sum(isinstance(entry[3], Packet) for entry in scheduler._lane)
        return queued, scheduled

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
        sent = self._packets_sent()
        queued, scheduled = self.census()
        self.held = queued + scheduled
        if sent != self._drops_total() + self.acks_consumed + self.held:
            self._fail(
                "packet conservation violated: "
                f"sent={sent} != drops+losses={self._drops_total()} "
                f"+ acks_consumed={self.acks_consumed} "
                f"+ held={self.held} (queued={queued}, scheduled={scheduled}) "
                "(a drop went uncounted, or a packet is held twice)"
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
        queued, scheduled = self.census()
        lines.append(f"census: queued={queued} scheduled={scheduled}")
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
