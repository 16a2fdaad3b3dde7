"""How a packet moves between the engine's closures: routes, lanes, the drop sink.

Every per-packet step of the simulator is a closure that its object builds
once, when it is wired: the sender's ACK-and-send loop
(:meth:`Sender.connect <repro.netsim.sender.Sender.connect>`), the
receiver's in-place ACK path (:meth:`Receiver.connect
<repro.netsim.receiver.Receiver.connect>`) and each constant-rate hop's
receive, serialize and finish steps
(:class:`~repro.netsim.link.ConstantRateLink`).  A closure hands a packet
on along a :data:`Route` ``(delay, lane, sink)`` that
:meth:`PathNetwork.attach_flow <repro.netsim.path.PathNetwork.attach_flow>`
computes per flow: append it to ``lane`` ``delay`` ahead when there is one,
else push it on the heap ``delay`` ahead, else (``delay == 0.0``) call
``sink`` right now.  Lossy gates, trace-driven hops and the sanitizer's
counting wrapper are sinks like any other.  A link owns its queue: the
sender calls its first hop's entry, and only the link's closures know the
queue's bookkeeping and the seal check.

A dumbbell's FIFO bottleneck (DropTail or unlimited) is *eager*: its
``receive`` computes each packet's service and arrival at enqueue and hands
the packet to the receiver then, so the packet's only event is its ACK
(:class:`~repro.netsim.link.ConstantRateLink`).  Every other hop keeps the
*event path*: a finish event per packet and a hand-off along the route.
The reference for the eager path is a
:class:`~repro.netsim.simulator.Simulation` subclass with ``_eager =
False``: the event path everywhere, every result but ``events_processed``
bit-identical.

A constant-rate dumbbell whose flows share one RTT posts its per-packet
events on the scheduler's two constant-delay lanes (see
:mod:`repro.netsim.events`): the ACKs behind an eager bottleneck, every
serialization and one-way hand-off behind an AQM.  Every other shape posts
the same entries on the heap, and so does every shape under the heap-only
reference (a subclass with ``_lanes = False``).  Both run the same float
program in the same event order, so they reproduce the committed golden
fingerprints bit-identically.

A heap push that can happen while lanes hold entries must bump
``_heap_version`` (the lane merge trusts a cached heap head until it moves).
No inlined packet hand-off pays that: the one topology with lanes routes
every hand-off and every ACK over a lane, and the only inline push that can
land on its heap, the sender's pacing timer, bumps it.

The closures are stored on the objects they capture.  These cycles are by
design and are cut by ``release()`` when ``Simulation.run`` ends, which is
why no closure may name itself.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Optional

from repro.netsim.events import EventScheduler
from repro.netsim.packet import Packet
from repro.netsim.queue import DropTailQueue, QueueDiscipline

#: One of the scheduler's constant-delay lanes, or ``None``: post on the heap.
Lane = Optional["deque[list[Any]]"]

#: Where a packet goes next, ``(delay, lane, sink)`` (see the module doc).
Route = tuple[float, Lane, Callable[[Packet], None]]


def unwired(packet: Optional[Packet] = None, at: Optional[float] = None) -> None:
    """The sink of whatever is not (or no longer) wired: drops the packet,
    if there is one (an eager hop also passes its arrival time)."""


#: The hand-off for a flow that does not cross a hop (should not happen).
NO_ROUTE: Route = (0.0, None, unwired)


def hand_off(scheduler: EventScheduler, route: Route, packet: Packet) -> None:
    """Send ``packet`` along ``route`` now: the cold paths' hand-off, which
    the per-packet closures inline."""
    delay, lane, sink = route
    if lane is not None:
        lane.append([scheduler.now + delay, scheduler._sequence, sink, packet])
        scheduler._sequence += 1
    elif delay:
        scheduler.post_after(delay, sink, packet)
    else:
        sink(packet)


def across(scheduler: EventScheduler, delay: float, route: Route) -> Route:
    """``route`` as seen from the near end of a hop with propagation ``delay``.

    The packet arrives at the far end that far ahead and goes on from there:
    straight into the next hop's entry (posted here in the far end's place),
    or across a further delay, which stays a second event.  (Heap only: the
    dumbbell bottleneck, the one hop that rides lanes, has no propagation
    delay.)
    """
    if not delay:
        return route
    onward, _, sink = route
    if not onward:
        return (delay, None, sink)
    heap = scheduler._heap

    def deliver(packet: Packet) -> None:
        heappush(heap, [scheduler.now + onward, scheduler._sequence, sink, (packet,)])
        scheduler._sequence += 1

    return (delay, None, deliver)


def plain_fifo(queue: QueueDiscipline) -> Optional["deque[Packet]"]:
    """The queue's FIFO when it is an un-overridden DropTail (or
    InfiniteQueue), whose bookkeeping the link's closures may inline; else
    ``None``."""
    if (
        isinstance(queue, DropTailQueue)
        and type(queue).enqueue is DropTailQueue.enqueue
        and type(queue).dequeue is DropTailQueue.dequeue
    ):
        return queue._queue
    return None
