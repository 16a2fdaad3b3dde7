"""What every hop of every topology shares: queue construction and fail-fast checks.

:func:`build_queue` turns a queue kind name (one of :data:`QUEUE_KINDS`) or a
factory into a :class:`~repro.netsim.queue.QueueDiscipline`, so a queue kind
behaves identically wherever it appears.  The ``validate_*`` helpers are the
checks :class:`~repro.netsim.path.LinkSpec`, :class:`~repro.netsim.path.PathSpec`
and the trace-driven link run at construction.  The topology itself — the
paper's dumbbell included (:meth:`~repro.netsim.path.PathSpec.dumbbell`) — is
a :class:`~repro.netsim.path.PathSpec`.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional, Sequence, Union

from repro.netsim.aqm import CoDelQueue, REDQueue
from repro.netsim.queue import DropTailQueue, InfiniteQueue, QueueDiscipline
from repro.netsim.sfq import SfqCoDelQueue

QueueFactory = Callable[[], QueueDiscipline]

#: Built-in queue discipline names a :class:`~repro.netsim.path.LinkSpec` accepts.
QUEUE_KINDS = ("droptail", "infinite", "codel", "sfqcodel", "red", "red-dctcp", "xcp")


def validate_delivery_trace(delivery_trace: Sequence[float]) -> None:
    """Fail fast on malformed delivery traces (every trace-driven hop).

    An empty trace used to slip through construction and crash later with an
    ``IndexError`` inside ``effective_rate_bps``.  Specs check at
    construction; :class:`~repro.netsim.link.TraceDrivenLink` checks again,
    for links built directly.
    """
    times = list(delivery_trace)
    if not times:
        raise ValueError(
            "delivery_trace must contain at least one delivery instant "
            "(got an empty trace); omit it for a constant-rate link"
        )
    for i, (a, b) in enumerate(zip(times, times[1:])):
        if b < a:
            raise ValueError(
                "delivery_trace timestamps must be non-decreasing: "
                f"entry {i + 1} ({b!r}) precedes entry {i} ({a!r}); "
                "delivery traces are cumulative instants, not "
                "inter-delivery gaps"
            )


def validate_mss(mss_bytes: int) -> None:
    """Fail fast on a non-positive segment size (specs and trace links)."""
    if mss_bytes <= 0:
        raise ValueError("mss_bytes must be positive")


def validate_flows(
    rtt: Union[float, Sequence[float]], n_flows: int, mss_bytes: int
) -> None:
    """Fail fast on a path's per-flow fields.

    A negative RTT used to die inside a callback (``negative delay``) under
    the generic kernel and to *run* under the fused one, whose closures post
    ``now + delay`` unchecked; a short RTT sequence surfaced only when the
    missing flow was attached.
    """
    if n_flows <= 0:
        raise ValueError("n_flows must be positive")
    validate_mss(mss_bytes)
    if isinstance(rtt, (int, float)):
        rtts = [float(rtt)]
    else:
        rtts = list(rtt)
        if len(rtts) < n_flows:
            raise ValueError(
                f"rtt sequence has {len(rtts)} entries but the spec has {n_flows} flows"
            )
    for value in rtts:
        if not 0.0 <= value < math.inf:
            raise ValueError(f"rtt must be finite and non-negative, got {value!r}")


def build_queue(
    queue: Union[str, QueueFactory],
    *,
    buffer_packets: int,
    rng: Optional[random.Random] = None,
    codel_target: float = 0.005,
    codel_interval: float = 0.100,
    red_min_thresh: float = 20.0,
    red_max_thresh: float = 60.0,
    dctcp_marking_threshold: float = 65.0,
    red_idle_decay_seconds: float = 0.001,
    xcp_rate_bps: float = 10e6,
    xcp_mean_rtt: float = 0.05,
) -> QueueDiscipline:
    """Instantiate a queue discipline from a kind name (or factory).

    The single construction path behind every hop of every topology
    (:meth:`~repro.netsim.path.LinkSpec.make_queue`), so a queue kind
    behaves identically wherever it appears.
    """
    if callable(queue):
        return queue()
    if queue == "droptail":
        return DropTailQueue(capacity_packets=buffer_packets)
    if queue == "infinite":
        return InfiniteQueue()
    if queue == "codel":
        return CoDelQueue(
            capacity_packets=buffer_packets,
            target=codel_target,
            interval=codel_interval,
        )
    if queue == "sfqcodel":
        return SfqCoDelQueue(
            capacity_packets=buffer_packets,
            target=codel_target,
            interval=codel_interval,
        )
    if queue == "red":
        return REDQueue(
            capacity_packets=buffer_packets,
            min_thresh=red_min_thresh,
            max_thresh=red_max_thresh,
            rng=rng,
            idle_decay_seconds=red_idle_decay_seconds,
        )
    if queue == "red-dctcp":
        return REDQueue(
            capacity_packets=buffer_packets,
            min_thresh=dctcp_marking_threshold,
            max_thresh=dctcp_marking_threshold + 1,
            dctcp_mode=True,
            ecn=True,
            rng=rng,
            idle_decay_seconds=red_idle_decay_seconds,
        )
    if queue == "xcp":
        # Imported lazily: protocols depend on netsim, not the reverse.
        from repro.protocols.xcp import XCPRouterQueue

        return XCPRouterQueue(
            capacity_packets=buffer_packets,
            link_rate_bps=xcp_rate_bps,
            control_interval=max(xcp_mean_rtt, 0.01),
        )
    raise ValueError(f"unknown queue kind {queue!r}; expected one of {QUEUE_KINDS}")
