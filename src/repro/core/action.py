"""RemyCC actions: what a rule does when its memory region is triggered (§4.2).

An action has three components:

* ``window_multiple`` (m ≥ 0): multiplier applied to the current congestion
  window,
* ``window_increment`` (b, may be negative): additive change to the window,
* ``intersend_ms`` (r > 0): lower bound, in milliseconds, on the time between
  successive transmissions.

The optimizer explores a neighbourhood of candidate actions whose per-
component deltas grow geometrically away from the current value (the paper's
example: r ± 0.01, r ± 0.08, r ± 0.64, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator

#: Default initial action: any memory value maps to m=1, b=1, r=0.01 ms (§4.3).
DEFAULT_WINDOW_MULTIPLE = 1.0
DEFAULT_WINDOW_INCREMENT = 1.0
DEFAULT_INTERSEND_MS = 0.01

#: Bounds keeping the search (and the resulting sender behaviour) sane.
MIN_WINDOW_MULTIPLE = 0.0
MAX_WINDOW_MULTIPLE = 2.0
MIN_WINDOW_INCREMENT = -256.0
MAX_WINDOW_INCREMENT = 256.0
MIN_INTERSEND_MS = 0.002
MAX_INTERSEND_MS = 1000.0

#: Base granularity of candidate improvements per component.
MULTIPLE_GRANULARITY = 0.01
INCREMENT_GRANULARITY = 1.0
INTERSEND_GRANULARITY = 0.05

#: Geometric growth factor between candidate magnitudes (0.01 → 0.08 → 0.64).
CANDIDATE_GROWTH = 8.0

#: Decimal places of the lattice candidate actions live on: finer than any step
#: the search takes (the smallest is 0.01), seven orders coarser than the float
#: error a walk accumulates — so ``a + d - d`` is ``a`` again, as equal floats.
ACTION_DECIMALS = 9

#: Maximum congestion window (packets) an action may produce.
MAX_WINDOW_PACKETS = 1_000_000.0


@dataclass(frozen=True, slots=True)
class Action:
    """A three-component RemyCC action."""

    window_multiple: float = DEFAULT_WINDOW_MULTIPLE
    window_increment: float = DEFAULT_WINDOW_INCREMENT
    intersend_ms: float = DEFAULT_INTERSEND_MS

    def __post_init__(self) -> None:
        for name in self.__slots__:
            # NaN passes every comparison below (and is unequal to itself).
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.window_multiple < 0:
            raise ValueError("window_multiple must be non-negative")
        if self.intersend_ms <= 0:
            raise ValueError("intersend_ms must be positive")

    # ------------------------------------------------------------------ use
    def apply(self, window: float) -> float:
        """New congestion window after applying this action."""
        new_window = self.window_multiple * window + self.window_increment
        return min(max(new_window, 0.0), MAX_WINDOW_PACKETS)

    @property
    def intersend_seconds(self) -> float:
        """Pacing interval in seconds (the simulator's time unit)."""
        return self.intersend_ms / 1000.0

    # --------------------------------------------------------------- search
    def clamped(self) -> "Action":
        """Clamp every component into its legal range."""
        return Action(
            min(max(self.window_multiple, MIN_WINDOW_MULTIPLE), MAX_WINDOW_MULTIPLE),
            min(max(self.window_increment, MIN_WINDOW_INCREMENT), MAX_WINDOW_INCREMENT),
            min(max(self.intersend_ms, MIN_INTERSEND_MS), MAX_INTERSEND_MS),
        )

    def neighbors(self, magnitudes: int = 2) -> Iterator["Action"]:
        """Candidate replacement actions around this one.

        For each component we try ``magnitudes`` geometric step sizes in both
        directions plus "no change", and take the Cartesian product over the
        three components (excluding the all-unchanged candidate).  With the
        default ``magnitudes=2`` this yields 5*5*5 - 1 = 124 candidates,
        matching the paper's "roughly 100".

        Every candidate component is rounded to ``ACTION_DECIMALS`` places
        before it is clamped, so away from a clamp ``a in b.neighbors()`` for
        every ``b in a.neighbors()`` as *equal floats* — which is what lets
        the optimizer's design memo recognise an action it has scored.
        """
        if magnitudes < 1:
            raise ValueError("magnitudes must be at least 1")

        def placed(value: float, low: float, high: float) -> float:
            return min(max(round(value, ACTION_DECIMALS), low), high)

        def deltas(granularity: float) -> list[float]:
            steps = [0.0]
            scale = granularity
            for _ in range(magnitudes):
                steps.extend([scale, -scale])
                scale *= CANDIDATE_GROWTH
            return steps

        for dm, db, dr in product(
            deltas(MULTIPLE_GRANULARITY),
            deltas(INCREMENT_GRANULARITY),
            deltas(INTERSEND_GRANULARITY),
        ):
            if dm == 0.0 and db == 0.0 and dr == 0.0:
                continue
            candidate = Action(
                placed(self.window_multiple + dm, MIN_WINDOW_MULTIPLE, MAX_WINDOW_MULTIPLE),
                placed(self.window_increment + db, MIN_WINDOW_INCREMENT, MAX_WINDOW_INCREMENT),
                placed(self.intersend_ms + dr, MIN_INTERSEND_MS, MAX_INTERSEND_MS),
            )
            if candidate != self:
                yield candidate

    def with_values(self, **kwargs: float) -> "Action":
        """Return a copy with the given components replaced."""
        return replace(self, **kwargs)

    @classmethod
    def default(cls) -> "Action":
        """The initial action Remy assigns to the single starting rule."""
        return cls(DEFAULT_WINDOW_MULTIPLE, DEFAULT_WINDOW_INCREMENT, DEFAULT_INTERSEND_MS)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.window_multiple, self.window_increment, self.intersend_ms)
