"""Crash-safe distributed evaluation: lease queue, heartbeats, workers.

The design phase (§4.3) evaluates hundreds of independent
:class:`~repro.runner.jobs.SimJob`\\ s per optimizer round; this module
fans them out over the network instead of a local process pool, with the
same contracts every other backend keeps — submission order and
bit-identical results — surviving worker crashes, disconnects, hangs and
corrupted frames along the way:

* :class:`LeaseQueue` — the coordinator's **pure** scheduling state
  machine.  Work is handed out as *leases* with deadlines; an expired
  lease is re-queued, a worker that stops heartbeating is evicted and its
  leases charged, and a late or duplicate result for a dead lease is
  discarded idempotently by chunk id.  Every failure verdict goes through
  the shared :func:`~repro.runner.resilience.record_failure` machinery, so
  retry, bisection, solo confirmation and poison-job condemnation behave
  exactly as in :class:`~repro.runner.backends.ProcessPoolBackend`.
  Every method takes ``now`` explicitly — tests drive it with a
  :class:`~repro.runner.resilience.FakeClock` and never sleep.
* :class:`QueueBackend` — an :class:`~repro.runner.backends.ExecutionBackend`
  that embeds the coordinator: it binds ``host:port``, and ``run_batch``
  pumps a single-threaded ``selectors`` event loop until every slot is
  filled.  (Wrap it in :class:`~repro.runner.cache.CachingBackend` to serve
  repeat jobs from a content-addressed cache without a lease.)  If no
  worker stays registered for ``worker_wait`` seconds, the batch
  *degrades* to in-process serial execution rather than hanging forever.
* :func:`run_worker` — the worker loop (``python -m
  repro.runner.distributed worker host:port``): register, poll for a
  chunk, execute it via the same entry point the process pool uses,
  heartbeat from a side thread while computing, report the result, and
  reconnect with deterministic exponential backoff when the coordinator
  goes away.  Workers arm :func:`~repro.runner.faults.worker_fault_plan`
  from the environment and apply *network* fault modes at the transport
  (disconnect mid-chunk, stalled heartbeat, corrupt frame, duplicate
  result), so the chaos tests exercise every recovery path
  deterministically.

Wire protocol (see :mod:`repro.runner.wire` for framing): JSON messages —
``register``/``registered``, ``heartbeat``/``ok``, ``poll`` answered by
``idle`` or ``chunk`` (pickled jobs, a ``chunk_id``, the batch serial and
the attempt number), ``result``/``error`` answered by
``accepted``/``stale``/``rejected``.  Chunk ids are fresh per dispatch
and results must echo the batch serial, so a straggler from a previous
lease — or a previous batch — can never land in the wrong slot.
"""

from __future__ import annotations

import argparse
import os
import selectors
import signal
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass
from types import FrameType
from typing import Any, Optional, Sequence

from repro.runner import wire
from repro.runner.backends import (
    ExecutionBackend,
    _execute_job_chunk,
    prepare_jobs,
)
from repro.runner.faults import (
    mark_transport_worker,
    mark_worker_process,
    worker_fault_plan,
)
from repro.runner.jobs import SimJob, SimJobResult, chunk_result_mismatch
from repro.runner.resilience import (
    BatchEntry,
    Clock,
    JobFailure,
    MonotonicClock,
    PoisonJobError,
    RetryPolicy,
    _WorkItem,
    record_failure,
    run_item_serially,
)

DEFAULT_LEASE_TIMEOUT = 60.0
DEFAULT_HEARTBEAT_TIMEOUT = 15.0
DEFAULT_WORKER_WAIT = 60.0
DEFAULT_IO_TIMEOUT = 30.0
#: Coordinator event-loop granularity when idle (real clock: 5 ms).
DEFAULT_POLL_INTERVAL = 0.005
#: How long an idle worker waits before polling again.
DEFAULT_IDLE_POLL = 0.05


# ---------------------------------------------------------------------------
# The lease queue: pure scheduling state, no I/O, no clock of its own
# ---------------------------------------------------------------------------
@dataclass
class _Lease:
    """One chunk out with one worker, until ``deadline``."""

    chunk_id: int
    item: _WorkItem
    worker_id: str
    deadline: float


class LeaseQueue:
    """Lease-based scheduling of one batch's job chunks — pure state.

    Holds the batch's result slots, the pending work items, the
    outstanding leases and the registered workers.  All transitions take
    ``now`` as an argument (monotonic seconds), so the queue is fully
    deterministic under test: drive it with a fake clock and no real time
    passes.

    Robustness semantics:

    * ``lease`` hands the next pending chunk to a worker under a **fresh
      chunk id** with a deadline of ``now + lease_timeout``;
    * ``expire`` charges overdue leases (kind ``"timeout"``) and re-queues
      their items, and evicts workers silent for ``heartbeat_timeout``,
      charging their leases;
    * ``disconnect`` (a dropped connection) charges the worker's leases as
      ``"crash"`` — the same verdict a local pool break gets;
    * ``complete`` is **idempotent**: a result whose chunk id has no live
      lease (expired, already completed, or from a duplicate send) is
      discarded as ``"stale"``; a result that fails validation is
      ``"rejected"`` and charged as ``"corrupt"``.

    Failure charging is :func:`~repro.runner.resilience.record_failure`:
    retry while attempts remain, then bisect multi-job chunks, solo-confirm
    single suspects on a fresh lease, and only then condemn a
    :class:`~repro.runner.resilience.JobFailure` into its result slot.
    """

    def __init__(
        self,
        jobs: Sequence[SimJob],
        *,
        chunk_jobs: int,
        max_attempts: int,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    ) -> None:
        if chunk_jobs <= 0:
            raise ValueError("chunk_jobs must be positive")
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if lease_timeout <= 0 or heartbeat_timeout <= 0:
            raise ValueError("lease/heartbeat timeouts must be positive")
        self.lease_timeout = lease_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self._max_attempts = max_attempts
        self.results: list[Optional[BatchEntry]] = [None] * len(jobs)
        self.failures: list[JobFailure] = []
        self._pending: list[_WorkItem] = [
            _WorkItem(start, tuple(jobs[start : start + chunk_jobs]))
            for start in range(0, len(jobs), chunk_jobs)
        ]
        self._leases: dict[int, _Lease] = {}
        self._workers: dict[str, float] = {}  # worker id -> last heard from
        self._next_chunk_id = 0
        # Observability counters (asserted by tests, reported by the CLI).
        self.completed_chunks = 0
        self.expired_leases = 0
        self.evicted_workers = 0
        self.stale_results = 0

    # -- workers -------------------------------------------------------------
    def register(self, worker_id: str, now: float) -> None:
        self._workers[worker_id] = now

    def is_registered(self, worker_id: str) -> bool:
        return worker_id in self._workers

    def heartbeat(self, worker_id: str, now: float) -> bool:
        """Refresh a worker's liveness; ``False`` if it must re-register."""
        if worker_id not in self._workers:
            return False
        self._workers[worker_id] = now
        return True

    def live_worker_count(self) -> int:
        return len(self._workers)

    def disconnect(
        self, worker_id: str, now: float, kind: str = "crash", message: str = ""
    ) -> None:
        """Evict a worker and charge every lease it held."""
        self._workers.pop(worker_id, None)
        for chunk_id, lease in list(self._leases.items()):
            if lease.worker_id == worker_id:
                del self._leases[chunk_id]
                self._charge(
                    lease.item,
                    kind,
                    message or f"worker {worker_id} disconnected mid-lease",
                )

    # -- scheduling ----------------------------------------------------------
    def lease(self, worker_id: str, now: float) -> Optional[tuple[int, _WorkItem]]:
        """Hand the next pending chunk to ``worker_id``, or ``None`` if idle.

        Items whose slots were already filled (defensive: overlapping
        coverage cannot normally arise) are skipped.  The chunk id is fresh
        per dispatch — re-leasing the same item after an expiry yields a
        *different* id, which is what makes late results from the old lease
        discardable.
        """
        self._workers[worker_id] = now
        while self._pending:
            item = self._pending.pop(0)
            if self._satisfied(item):
                continue
            chunk_id = self._next_chunk_id
            self._next_chunk_id += 1
            self._leases[chunk_id] = _Lease(
                chunk_id, item, worker_id, now + self.lease_timeout
            )
            return chunk_id, item
        return None

    def complete(self, chunk_id: int, chunk_results: object, now: float) -> str:
        """Accept one chunk's results: ``accepted`` / ``stale`` / ``rejected``."""
        lease = self._leases.get(chunk_id)
        if lease is None:
            # Expired, already completed, or a duplicate send: the lease is
            # gone, so the result has nowhere legitimate to land.  Discard.
            self.stale_results += 1
            return "stale"
        if lease.worker_id in self._workers:
            self._workers[lease.worker_id] = now
        del self._leases[chunk_id]
        item = lease.item
        mismatch = self._validate(item, chunk_results)
        if mismatch is not None:
            self._charge(item, "corrupt", mismatch)
            return "rejected"
        assert isinstance(chunk_results, list)
        for offset, result in enumerate(chunk_results):
            self.results[item.start + offset] = result
        self.completed_chunks += 1
        return "accepted"

    def fail(self, chunk_id: int, kind: str, message: str, now: float) -> bool:
        """Charge a worker-reported failure; ``False`` if the lease is gone."""
        lease = self._leases.pop(chunk_id, None)
        if lease is None:
            self.stale_results += 1
            return False
        if lease.worker_id in self._workers:
            self._workers[lease.worker_id] = now
        self._charge(lease.item, kind, message)
        return True

    def expire(self, now: float) -> None:
        """Reap overdue leases and heartbeat-silent workers."""
        for chunk_id, lease in list(self._leases.items()):
            if lease.deadline <= now:
                del self._leases[chunk_id]
                self.expired_leases += 1
                self._charge(
                    lease.item,
                    "timeout",
                    f"lease {chunk_id} on worker {lease.worker_id} exceeded "
                    f"lease_timeout={self.lease_timeout}s",
                )
        for worker_id, last_seen in list(self._workers.items()):
            if now - last_seen > self.heartbeat_timeout:
                self.evicted_workers += 1
                self.disconnect(
                    worker_id,
                    now,
                    kind="timeout",
                    message=(
                        f"worker {worker_id} evicted: silent for "
                        f"{now - last_seen:.3f}s "
                        f"(heartbeat_timeout={self.heartbeat_timeout}s)"
                    ),
                )

    def drain(self) -> list[_WorkItem]:
        """Abandon all leases and hand back every unfinished item (degrade)."""
        items = [lease.item for lease in self._leases.values()]
        items.extend(self._pending)
        self._leases.clear()
        self._pending.clear()
        return [item for item in items if not self._satisfied(item)]

    @property
    def done(self) -> bool:
        return all(entry is not None for entry in self.results)

    # -- internals -----------------------------------------------------------
    def _satisfied(self, item: _WorkItem) -> bool:
        return all(
            self.results[item.start + offset] is not None
            for offset in range(len(item.jobs))
        )

    def _validate(self, item: _WorkItem, chunk_results: object) -> Optional[str]:
        if not isinstance(chunk_results, list) or not all(
            isinstance(result, SimJobResult) for result in chunk_results
        ):
            return (
                f"worker returned {type(chunk_results).__name__!s} instead of "
                "a list of SimJobResult"
            )
        return chunk_result_mismatch(list(item.jobs), chunk_results)

    def _charge(self, item: _WorkItem, kind: str, message: str) -> None:
        # One list serves as both retry and solo queue: a solo item on a
        # fresh lease runs alone on its worker, which is all solo
        # confirmation needs here (failures are charged per worker).
        record_failure(
            item,
            kind,
            message,
            max_attempts=self._max_attempts,
            results=self.results,
            failures=self.failures,
            retry_queue=self._pending,
            solo_queue=self._pending,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        filled = sum(1 for entry in self.results if entry is not None)
        return (
            f"LeaseQueue({filled}/{len(self.results)} slots, "
            f"{len(self._pending)} pending, {len(self._leases)} leased, "
            f"{len(self._workers)} workers)"
        )


# ---------------------------------------------------------------------------
# The coordinator backend
# ---------------------------------------------------------------------------
class _Connection:
    """Per-socket coordinator state: reassembly buffer + outbound queue."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.frames = wire.FrameBuffer()
        self.outbound = bytearray()
        self.worker_id: Optional[str] = None
        self.closed = False


class QueueBackend(ExecutionBackend):
    """Distributed execution over a lease-based work queue (spec ``queue:``).

    Embeds the coordinator: construction binds ``host:port`` (port ``0``
    picks an ephemeral port, readable from :attr:`port`); each
    ``run_batch`` call pumps a single-threaded event loop that leases job
    chunks to whatever workers are registered, until every result slot is
    filled.  Workers connect with ``python -m repro.runner.distributed
    worker host:port``.

    Jobs are prepared with the same
    :func:`~repro.runner.backends.prepare_jobs` pass as the process pool's
    and run through the same worker entry point.

    If no worker is registered for ``worker_wait`` consecutive seconds
    (never having registered counts from the first pump), the batch
    **degrades**: the remaining items run serially in this process, so a
    run without workers completes instead of hanging — slower, never
    wrong.  Failures that survive retry/bisection/solo confirmation raise
    :class:`~repro.runner.resilience.PoisonJobError` (``on_failure="raise"``)
    or land as :class:`~repro.runner.resilience.JobFailure` entries
    (``on_failure="return"``), matching the process pool.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        chunk_jobs: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        worker_wait: float = DEFAULT_WORKER_WAIT,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        on_failure: str = "raise",
    ) -> None:
        if on_failure not in ("raise", "return"):
            raise ValueError("on_failure must be 'raise' or 'return'")
        if chunk_jobs is not None and chunk_jobs <= 0:
            raise ValueError("chunk_jobs must be positive")
        if worker_wait <= 0 or poll_interval <= 0:
            raise ValueError("worker_wait and poll_interval must be positive")
        self.chunk_jobs = chunk_jobs
        self.retry = retry if retry is not None else RetryPolicy()
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.lease_timeout = lease_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_interval = max(0.05, heartbeat_timeout / 5.0)
        self.worker_wait = worker_wait
        self.poll_interval = poll_interval
        self.on_failure = on_failure
        self.degraded = False
        self._batch_serial = 0
        self._closed = False
        listener = socket.create_server((host, port), backlog=64)
        listener.setblocking(False)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, data=None)

    @property
    def address(self) -> str:
        """``host:port`` as workers should be pointed at it."""
        return f"{self.host}:{self.port}"

    # -- the batch loop ------------------------------------------------------
    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimJobResult]:
        if self._closed:
            raise RuntimeError("QueueBackend is closed")
        prepared = prepare_jobs(jobs)
        if not prepared:
            return []
        self._batch_serial += 1
        queue = LeaseQueue(
            prepared,
            chunk_jobs=self._chunk_size(len(prepared)),
            max_attempts=self.retry.max_attempts,
            lease_timeout=self.lease_timeout,
            heartbeat_timeout=self.heartbeat_timeout,
        )
        self._pump(queue)
        if queue.failures and self.on_failure == "raise":
            raise PoisonJobError(queue.failures, total_jobs=len(prepared))
        return queue.results  # type: ignore[return-value]  # every slot filled above

    def _chunk_size(self, n_jobs: int) -> int:
        if self.chunk_jobs is not None:
            return self.chunk_jobs
        # The worker count is unknown up front (workers come and go), so
        # target a fixed fan-out per batch: enough chunks for load balance
        # across a handful of workers, few enough to amortize framing.
        return max(1, -(-n_jobs // 16))

    def _pump(self, queue: LeaseQueue) -> None:
        """Drive the event loop until every result slot is filled."""
        no_worker_since: Optional[float] = None
        while not queue.done:
            progressed = self._pump_io(queue)
            now = self.clock.now()
            queue.expire(now)
            if queue.done:
                break
            if queue.live_worker_count() == 0:
                if no_worker_since is None:
                    no_worker_since = now
                elif now - no_worker_since >= self.worker_wait:
                    self._degrade(queue)
                    return
            else:
                no_worker_since = None
            if not progressed:
                self.clock.sleep(self.poll_interval)

    def _pump_io(self, queue: LeaseQueue) -> bool:
        events = self._selector.select(timeout=0)
        for key, mask in events:
            if key.data is None:
                self._accept()
                continue
            conn = key.data
            assert isinstance(conn, _Connection)
            if mask & selectors.EVENT_READ and not conn.closed:
                self._service_read(conn, queue)
            if mask & selectors.EVENT_WRITE and not conn.closed:
                self._flush(conn, queue)
        return bool(events)

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        self._selector.register(
            sock, selectors.EVENT_READ, data=_Connection(sock)
        )

    def _service_read(self, conn: _Connection, queue: LeaseQueue) -> None:
        try:
            data = conn.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError as exc:
            self._drop(conn, queue, kind="crash", reason=repr(exc))
            return
        if not data:
            self._drop(conn, queue, kind="crash", reason="connection closed")
            return
        conn.frames.feed(data)
        while not conn.closed:
            try:
                payload = conn.frames.next_frame()
            except wire.FrameError as exc:
                # A corrupt frame poisons the stream offset: charge the
                # worker's leases and drop the connection; the worker
                # reconnects and re-registers.
                self._drop(conn, queue, kind="corrupt", reason=str(exc))
                return
            if payload is None:
                return
            try:
                message = wire.decode_message(payload)
            except wire.FrameError as exc:
                self._drop(conn, queue, kind="corrupt", reason=str(exc))
                return
            self._handle_message(conn, message, queue)

    def _handle_message(
        self, conn: _Connection, message: dict[str, Any], queue: LeaseQueue
    ) -> None:
        now = self.clock.now()
        mtype = message["type"]
        if mtype == "register":
            worker_id = str(message.get("worker", ""))
            if not worker_id:
                self._drop(conn, queue, kind="corrupt", reason="empty worker id")
                return
            conn.worker_id = worker_id
            queue.register(worker_id, now)
            self._send(
                conn,
                {
                    "type": "registered",
                    "heartbeat_interval": self.heartbeat_interval,
                    "batch": self._batch_serial,
                },
                queue,
            )
            return
        if mtype == "heartbeat":
            alive = conn.worker_id is not None and queue.heartbeat(
                conn.worker_id, now
            )
            self._send(
                conn, {"type": "ok" if alive else "unknown-worker"}, queue
            )
            return
        if mtype == "poll":
            if conn.worker_id is None or not queue.is_registered(conn.worker_id):
                self._send(conn, {"type": "unknown-worker"}, queue)
                return
            leased = queue.lease(conn.worker_id, now)
            if leased is None:
                self._send(
                    conn,
                    {"type": "idle", "retry_after": DEFAULT_IDLE_POLL},
                    queue,
                )
                return
            chunk_id, item = leased
            self._send(
                conn,
                {
                    "type": "chunk",
                    "batch": self._batch_serial,
                    "chunk_id": chunk_id,
                    "attempt": item.attempt,
                    "jobs": wire.encode_payload(list(item.jobs)),
                },
                queue,
            )
            return
        if mtype == "result":
            if message.get("batch") != self._batch_serial:
                # A straggler from a previous batch: its chunk id namespace
                # is dead, so the result cannot be placed.  Idempotent drop.
                queue.stale_results += 1
                self._send(conn, {"type": "stale"}, queue)
                return
            chunk_id = int(message.get("chunk_id", -1))
            try:
                chunk_results = wire.decode_payload(str(message.get("results", "")))
            except wire.FrameError as exc:
                queue.fail(chunk_id, "corrupt", str(exc), now)
                self._send(conn, {"type": "rejected"}, queue)
                return
            status = queue.complete(chunk_id, chunk_results, now)
            self._send(conn, {"type": status}, queue)
            return
        if mtype == "error":
            if message.get("batch") == self._batch_serial:
                queue.fail(
                    int(message.get("chunk_id", -1)),
                    "exception",
                    str(message.get("message", "")),
                    now,
                )
            self._send(conn, {"type": "ok"}, queue)
            return
        self._send(
            conn,
            {"type": "error", "message": f"unknown message type {mtype!r}"},
            queue,
        )

    def _send(
        self, conn: _Connection, message: dict[str, Any], queue: LeaseQueue
    ) -> None:
        conn.outbound += wire.frame(wire.encode_message(message))
        self._flush(conn, queue)

    def _flush(self, conn: _Connection, queue: LeaseQueue) -> None:
        if conn.outbound:
            try:
                sent = conn.sock.send(conn.outbound)
                del conn.outbound[:sent]
            except BlockingIOError:
                pass
            except OSError as exc:
                self._drop(conn, queue, kind="crash", reason=repr(exc))
                return
        mask = selectors.EVENT_READ
        if conn.outbound:
            mask |= selectors.EVENT_WRITE
        self._selector.modify(conn.sock, mask, data=conn)

    def _drop(
        self, conn: _Connection, queue: LeaseQueue, kind: str, reason: str
    ) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
        if conn.worker_id is not None and queue.is_registered(conn.worker_id):
            queue.disconnect(
                conn.worker_id,
                self.clock.now(),
                kind=kind,
                message=f"connection to worker {conn.worker_id} lost: {reason}",
            )

    def _degrade(self, queue: LeaseQueue) -> None:
        """No workers for too long: finish the batch in this process."""
        self.degraded = True
        for item in queue.drain():
            run_item_serially(item, queue.results, queue.failures)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for key in list(self._selector.get_map().values()):
            if isinstance(key.data, _Connection):
                key.data.closed = True
                key.data.sock.close()
        self._selector.close()
        self._listener.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueueBackend({self.address}, retry={self.retry!r}, "
            f"degraded={self.degraded})"
        )


# ---------------------------------------------------------------------------
# The worker
# ---------------------------------------------------------------------------
class _InjectedDisconnect(ConnectionError):
    """Raised by the worker to simulate a mid-chunk connection loss."""


def run_worker(
    address: tuple[str, int],
    *,
    worker_id: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    clock: Optional[Clock] = None,
    io_timeout: float = DEFAULT_IO_TIMEOUT,
    max_consecutive_failures: Optional[int] = None,
) -> None:
    """The worker main loop: connect, work, reconnect with backoff, forever.

    Arms fault injection from the environment
    (:func:`~repro.runner.faults.worker_fault_plan`) and marks this process
    as a transport worker, so *network* fault modes are applied here at
    the socket layer instead of being aliased to local faults.  Each
    connection failure — including injected ones — tears the session down
    and reconnects after the :class:`RetryPolicy`'s deterministic backoff;
    the attempt counter resets once a session makes progress.

    ``max_consecutive_failures`` (``None`` = retry forever) bounds how many
    back-to-back failed sessions are tolerated before giving up with the
    last error — useful under a supervisor, pointless under a test that
    just kills the process.
    """
    mark_worker_process()
    mark_transport_worker()
    clock = clock if clock is not None else MonotonicClock()
    retry = retry if retry is not None else RetryPolicy()
    worker_id = worker_id if worker_id else f"w{os.getpid()}"
    streak = 0
    while True:
        progressed: list[bool] = [False]
        try:
            _worker_session(
                address,
                worker_id,
                clock=clock,
                io_timeout=io_timeout,
                progressed=progressed,
            )
        except (OSError, wire.FrameError, wire.ConnectionClosed) as exc:
            # A session that registered successfully resets the streak: the
            # coordinator was reachable, so this failure starts a new
            # backoff schedule instead of continuing a dead one.
            streak = 1 if progressed[0] else streak + 1
            if (
                max_consecutive_failures is not None
                and streak >= max_consecutive_failures
            ):
                raise
            # _InjectedDisconnect is a ConnectionError, so injected network
            # faults reconnect through the same deterministic schedule.
            clock.sleep(
                retry.backoff_seconds(min(streak, 10), key=f"reconnect:{worker_id}")
            )
            del exc


def _worker_session(
    address: tuple[str, int],
    worker_id: str,
    *,
    clock: Clock,
    io_timeout: float,
    progressed: Optional[list[bool]] = None,
) -> None:
    """One connection's lifetime: register, then poll/execute until it dies."""
    sock = wire.connect(address, io_timeout)
    try:
        reply = _register(sock, worker_id)
        if progressed is not None:
            progressed[0] = True
        heartbeat_interval = float(
            reply.get("heartbeat_interval", DEFAULT_HEARTBEAT_TIMEOUT / 5.0)
        )
        lock = threading.Lock()
        while True:
            with lock:
                wire.send_message(sock, {"type": "poll", "worker": worker_id})
                reply = wire.recv_message(sock)
            rtype = reply["type"]
            if rtype == "unknown-worker":
                # Evicted (or a fresh batch's queue): identity is cheap,
                # re-register and carry on.
                _register(sock, worker_id)
                continue
            if rtype == "idle":
                clock.sleep(float(reply.get("retry_after", DEFAULT_IDLE_POLL)))
                continue
            if rtype == "chunk":
                _execute_and_report(
                    sock,
                    lock,
                    reply,
                    worker_id=worker_id,
                    clock=clock,
                    heartbeat_interval=heartbeat_interval,
                )
                continue
            raise wire.FrameError(f"unexpected coordinator reply {rtype!r}")
    finally:
        sock.close()


def _register(sock: socket.socket, worker_id: str) -> dict[str, Any]:
    wire.send_message(sock, {"type": "register", "worker": worker_id})
    reply = wire.recv_message(sock)
    if reply.get("type") != "registered":
        raise wire.FrameError(
            f"coordinator rejected registration: {reply.get('type')!r}"
        )
    return reply


def _execute_and_report(
    sock: socket.socket,
    lock: threading.Lock,
    message: dict[str, Any],
    *,
    worker_id: str,
    clock: Clock,
    heartbeat_interval: float,
) -> None:
    """Run one leased chunk and report, applying network faults in transit."""
    jobs = wire.decode_payload(str(message["jobs"]))
    chunk_id = int(message["chunk_id"])
    attempt = int(message["attempt"])
    batch = int(message["batch"])
    plan = worker_fault_plan()
    net_mode: Optional[str] = None
    if plan is not None and jobs:
        net_mode = plan.network_mode_for(jobs[0].job_id, attempt)
    if net_mode == "disconnect":
        # Vanish mid-chunk: the coordinator sees EOF and charges the lease
        # as a crash; we reconnect through the normal backoff path.
        raise _InjectedDisconnect(
            f"injected disconnect before chunk {chunk_id} (attempt {attempt})"
        )

    stop = threading.Event()
    beat_errors: list[BaseException] = []

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                with lock:
                    wire.send_message(
                        sock, {"type": "heartbeat", "worker": worker_id}
                    )
                    wire.recv_message(sock)
            except BaseException as exc:  # surface after the chunk finishes
                beat_errors.append(exc)
                return

    heartbeats: Optional[threading.Thread] = None
    if net_mode != "stall":
        # A stalled worker is one that goes silent while computing: the
        # injected stall suppresses heartbeats entirely so the coordinator's
        # eviction path is what recovers the lease.
        heartbeats = threading.Thread(target=beat, daemon=True)
        heartbeats.start()
    error: Optional[BaseException] = None
    results: list[SimJobResult] = []
    try:
        results = _execute_job_chunk(list(jobs), attempt)
    except Exception as exc:
        error = exc
    finally:
        stop.set()
        if heartbeats is not None:
            heartbeats.join()
    if beat_errors:
        raise wire.ConnectionClosed(f"heartbeat failed: {beat_errors[0]!r}")
    if error is not None:
        with lock:
            wire.send_message(
                sock,
                {
                    "type": "error",
                    "worker": worker_id,
                    "batch": batch,
                    "chunk_id": chunk_id,
                    "message": repr(error),
                },
            )
            wire.recv_message(sock)
        return
    if net_mode == "stall" and plan is not None:
        clock.sleep(plan.stall_seconds)
    report = {
        "type": "result",
        "worker": worker_id,
        "batch": batch,
        "chunk_id": chunk_id,
        "results": wire.encode_payload(results),
    }
    if net_mode == "corrupt_frame":
        # Damage the frame in transit: the coordinator's checksum rejects
        # it, charges our lease and drops this connection.
        with lock:
            sock.sendall(wire.corrupt_frame(wire.encode_message(report)))
        raise _InjectedDisconnect(
            f"injected corrupt frame for chunk {chunk_id} (attempt {attempt})"
        )
    with lock:
        wire.send_message(sock, report)
        wire.recv_message(sock)  # accepted / stale / rejected
        if net_mode == "duplicate":
            # Send the identical result again: the coordinator must discard
            # it as stale (the lease is gone) without corrupting any slot.
            wire.send_message(sock, report)
            wire.recv_message(sock)


# ---------------------------------------------------------------------------
# CLI: python -m repro.runner.distributed worker HOST:PORT
# ---------------------------------------------------------------------------
def _parse_address(text: str) -> tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    if not sep or not host or not port_text:
        raise argparse.ArgumentTypeError(
            f"address {text!r} is not HOST:PORT (e.g. 127.0.0.1:7000)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"address {text!r}: port {port_text!r} is not an integer"
        ) from None
    if not 1 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"address {text!r}: port must lie in [1, 65535]"
        )
    return host, port


def _supervise(address: tuple[str, int], args: argparse.Namespace) -> int:
    """Respawn worker children after abnormal exits (``--restarts N``).

    An injected (or real) crash takes the whole worker process down with
    it; the supervisor is what turns that into a bounded outage instead of
    a permanently lost worker.  SIGTERM/SIGINT are forwarded to the child
    so killing the supervisor kills the worker too.
    """
    clock = MonotonicClock()
    retry = RetryPolicy()
    command = [
        sys.executable,
        "-m",
        "repro.runner.distributed",
        "worker",
        f"{address[0]}:{address[1]}",
        "--io-timeout",
        str(args.io_timeout),
    ]
    child: Optional[subprocess.Popen[bytes]] = None

    def forward(signum: int, _frame: Optional[FrameType]) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    restarts = 0
    try:
        while True:
            child = subprocess.Popen(command)
            returncode = child.wait()
            child = None
            if returncode == 0:
                return 0
            restarts += 1
            if restarts > args.restarts:
                return returncode
            clock.sleep(
                retry.backoff_seconds(
                    min(restarts, 8), key=f"respawn:{address[0]}:{address[1]}"
                )
            )
    finally:
        if child is not None and child.poll() is None:
            child.terminate()
            child.wait()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner.distributed",
        description=(
            "Distributed evaluation service processes.  The coordinator is "
            "embedded in QueueBackend (backend spec 'queue:host:port'); this "
            "entry point runs the worker side."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    worker = commands.add_parser(
        "worker", help="run one evaluation worker against a coordinator"
    )
    worker.add_argument(
        "address",
        type=_parse_address,
        help="coordinator HOST:PORT (as printed by the queue backend)",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity (default: w<pid>)",
    )
    worker.add_argument(
        "--io-timeout",
        type=float,
        default=DEFAULT_IO_TIMEOUT,
        help="socket timeout in seconds for every blocking operation",
    )
    worker.add_argument(
        "--restarts",
        type=int,
        default=0,
        help=(
            "supervisor mode: respawn the worker process up to N times "
            "after abnormal exits (a crashed job takes the process with it)"
        ),
    )
    args = parser.parse_args(argv)
    if args.io_timeout <= 0:
        parser.error("--io-timeout must be positive")
    if args.restarts < 0:
        parser.error("--restarts must be non-negative")
    if args.restarts > 0:
        return _supervise(args.address, args)
    try:
        run_worker(
            args.address, worker_id=args.worker_id, io_timeout=args.io_timeout
        )
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
