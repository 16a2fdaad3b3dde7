"""RemyCC memory: the sender's compact congestion signals (§4.1).

A RemyCC tracks exactly three state variables, updated on every new
acknowledgment:

* ``ack_ewma`` — an exponentially weighted moving average of the interarrival
  time between new ACKs (milliseconds),
* ``send_ewma`` — an EWMA of the spacing between the *sender timestamps*
  echoed in those ACKs (milliseconds), and
* ``rtt_ratio`` — the ratio of the most recent RTT to the minimum RTT seen on
  the current connection.

Both EWMAs give weight 1/8 to the new sample.  All three signals start at
zero at the beginning of every "on" period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

#: Weight given to each new sample in the two EWMAs (the paper uses 1/8).
EWMA_WEIGHT = 1.0 / 8.0

#: Upper bound of the representable memory space along each axis (the paper
#: maps state-variable values between 0 and 16384 to actions).
MAX_MEMORY = 16384.0

#: Number of memory dimensions (used by the octree split: 2**3 children).
MEMORY_DIMENSIONS = 3


@dataclass(slots=True)
class Memory:
    """A point in the three-dimensional RemyCC memory space."""

    ack_ewma: float = 0.0
    send_ewma: float = 0.0
    rtt_ratio: float = 0.0

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.ack_ewma, self.send_ewma, self.rtt_ratio)

    def __iter__(self) -> Iterator[float]:
        return iter(self.as_tuple())

    @classmethod
    def from_tuple(cls, values: tuple[float, float, float]) -> "Memory":
        return cls(float(values[0]), float(values[1]), float(values[2]))

    @classmethod
    def initial(cls) -> "Memory":
        """The well-known all-zeroes state every flow starts from."""
        return cls(0.0, 0.0, 0.0)

    def clamped(self) -> "Memory":
        """Clamp each component into the representable range [0, MAX_MEMORY]."""
        return Memory(
            min(max(self.ack_ewma, 0.0), MAX_MEMORY),
            min(max(self.send_ewma, 0.0), MAX_MEMORY),
            min(max(self.rtt_ratio, 0.0), MAX_MEMORY),
        )


class MemoryTracker:
    """Incrementally maintains a :class:`Memory` from acknowledgment events.

    The tracker is fed, for each new ACK, the time the ACK arrived at the
    sender, the echoed sender timestamp of the acknowledged data packet, and
    the RTT sample.  Times are in seconds at the interface and converted to
    milliseconds internally, matching the paper's tick units.
    """

    def __init__(self) -> None:
        self.memory = Memory.initial()
        self._last_ack_time: Optional[float] = None
        self._last_echo_time: Optional[float] = None
        self._min_rtt: Optional[float] = None

    def reset(self) -> None:
        """Return to the all-zeroes initial state (start of an "on" period)."""
        self.memory = Memory.initial()
        self._last_ack_time = None
        self._last_echo_time = None
        self._min_rtt = None

    @property
    def min_rtt(self) -> Optional[float]:
        return self._min_rtt

    def on_ack(self, ack_time: float, echo_sent_time: float, rtt: Optional[float]) -> Memory:
        """Fold one acknowledgment into the memory and return the new state.

        This is the reference definition of the update: ``RemyCCProtocol.on_ack``
        inlines it (and writes this tracker's fields directly), and
        tests/test_remycc_equivalence.py holds the two equal step by step.
        """
        if rtt is not None and rtt > 0:
            if self._min_rtt is None or rtt < self._min_rtt:
                self._min_rtt = rtt
            self.memory.rtt_ratio = rtt / self._min_rtt

        if self._last_ack_time is None or self._last_echo_time is None:
            self._last_ack_time = ack_time
            self._last_echo_time = echo_sent_time
            return self.memory

        ack_gap_ms = max(0.0, (ack_time - self._last_ack_time) * 1000.0)
        send_gap_ms = max(0.0, (echo_sent_time - self._last_echo_time) * 1000.0)
        memory = self.memory
        memory.ack_ewma = (1 - EWMA_WEIGHT) * memory.ack_ewma + EWMA_WEIGHT * ack_gap_ms
        memory.send_ewma = (1 - EWMA_WEIGHT) * memory.send_ewma + EWMA_WEIGHT * send_gap_ms
        self._last_ack_time = ack_time
        self._last_echo_time = echo_sent_time
        # Clamp in place (all three signals are non-negative by construction,
        # so only the upper bound can bind); ``clamped()`` would allocate a
        # fresh Memory on every acknowledgment.
        if memory.ack_ewma > MAX_MEMORY:
            memory.ack_ewma = MAX_MEMORY
        if memory.send_ewma > MAX_MEMORY:
            memory.send_ewma = MAX_MEMORY
        if memory.rtt_ratio > MAX_MEMORY:
            memory.rtt_ratio = MAX_MEMORY
        return memory


@dataclass(slots=True)
class MemoryRange:
    """An axis-aligned rectangular region of memory space: [lower, upper).

    The upper bound is exclusive except along the global maximum, so that the
    union of a tree's leaves tiles the space without overlap.
    """

    lower: Memory
    upper: Memory

    def __post_init__(self) -> None:
        for low, high in zip(self.lower, self.upper):
            if low > high:
                raise ValueError(f"lower bound {low} exceeds upper bound {high}")

    @classmethod
    def whole_space(cls) -> "MemoryRange":
        """The root region covering every representable memory value."""
        return cls(Memory(0.0, 0.0, 0.0), Memory(MAX_MEMORY, MAX_MEMORY, MAX_MEMORY))

    def contains(self, memory: Memory) -> bool:
        for value, low, high in zip(memory, self.lower, self.upper):
            if value < low or value > high:
                return False
            # The topmost edge of the space is inclusive so MAX_MEMORY maps
            # to a rule; interior upper bounds are exclusive.
            if value == high and high < MAX_MEMORY:
                return False
        return True

    def contains_point(self, v0: float, v1: float, v2: float) -> bool:
        """Scalar fast path of :meth:`contains`: no Memory object, no zip.

        The reference for the last-leaf cache check that
        ``RemyCCProtocol.on_ack`` inlines.
        """
        lower = self.lower
        upper = self.upper
        high = upper.ack_ewma
        if v0 < lower.ack_ewma or v0 > high or (v0 == high and high < MAX_MEMORY):
            return False
        high = upper.send_ewma
        if v1 < lower.send_ewma or v1 > high or (v1 == high and high < MAX_MEMORY):
            return False
        high = upper.rtt_ratio
        if v2 < lower.rtt_ratio or v2 > high or (v2 == high and high < MAX_MEMORY):
            return False
        return True

    def center(self) -> Memory:
        return Memory(
            (self.lower.ack_ewma + self.upper.ack_ewma) / 2,
            (self.lower.send_ewma + self.upper.send_ewma) / 2,
            (self.lower.rtt_ratio + self.upper.rtt_ratio) / 2,
        )

    def volume(self) -> float:
        dims = [high - low for low, high in zip(self.lower, self.upper)]
        product = 1.0
        for extent in dims:
            product *= extent
        return product

    def split(self, at: Optional[Memory] = None) -> list["MemoryRange"]:
        """Split at ``at`` (default: the center) into up to 2**3 = 8 sub-regions.

        Degenerate split coordinates (on a boundary) are nudged to the
        center in that dimension so that every child has positive extent.
        A dimension with no float strictly between its bounds — zero or one
        ulp wide, so even its "center" is an endpoint — is not split: every
        child keeps the parent's extent there and the upper-half children
        are left out (as Remy's own ``MemoryRange::bisect`` does), because a
        zero-width sliver at ``MAX_MEMORY`` would contain the point its
        sibling already does.  Either way the children tile the region.
        """
        point = at if at is not None else self.center()
        cuts: list[Optional[float]] = []
        for value, low, high, mid in zip(point, self.lower, self.upper, self.center()):
            cut = value if low < value < high else mid
            cuts.append(cut if low < cut < high else None)

        children = []
        for code in range(2 ** MEMORY_DIMENSIONS):
            lows, highs = [], []
            for dim, (low, high, cut) in enumerate(zip(self.lower, self.upper, cuts)):
                if cut is None:
                    if code & (1 << dim):
                        break  # an unsplit dimension has no upper half
                    lows.append(low)
                    highs.append(high)
                elif code & (1 << dim):
                    lows.append(cut)
                    highs.append(high)
                else:
                    lows.append(low)
                    highs.append(cut)
            else:
                children.append(MemoryRange(Memory(*lows), Memory(*highs)))
        return children

    def as_tuple(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        return (self.lower.as_tuple(), self.upper.as_tuple())
