"""A whisker: one rule of a RemyCC, mapping a memory region to an action.

The name follows the original Remy implementation.  Besides the mapping, a
whisker carries the bookkeeping the optimizer needs: a use count (how many
times the rule fired during the last evaluation), the epoch marker of the
greedy search, and a reservoir of the memory values that triggered the rule,
from which the median split point is computed when the rule is subdivided.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Optional

from repro.core.action import Action
from repro.core.memory import Memory, MemoryRange

#: Maximum number of triggering memory samples retained per whisker.  The
#: reservoir only needs to be large enough for a stable median estimate.
SAMPLE_RESERVOIR = 512


@dataclass(slots=True)
class Whisker:
    """One piecewise-constant rule: ⟨memory region⟩ → ⟨action⟩."""

    domain: MemoryRange
    action: Action = field(default_factory=Action.default)
    epoch: int = 0
    use_count: int = 0
    _samples: list[tuple[float, float, float]] = field(default_factory=list, repr=False)
    _sample_stride: int = field(default=1, repr=False)

    # ------------------------------------------------------------------ usage
    def matches(self, memory: Memory) -> bool:
        return self.domain.contains(memory)

    def use(self, memory: Memory) -> Action:
        """Record that ``memory`` triggered this rule and return its action."""
        self.use_count += 1
        if len(self._samples) < SAMPLE_RESERVOIR:
            self._samples.append(memory.as_tuple())
        else:
            # Simple striding keeps a spread of samples without an RNG, so
            # evaluations stay deterministic.
            if self.use_count % self._sample_stride == 0:
                index = self.use_count % SAMPLE_RESERVOIR
                self._samples[index] = memory.as_tuple()
        return self.action

    def reset_statistics(self) -> None:
        """Clear the use count and sample reservoir before an evaluation."""
        self.use_count = 0
        self._samples.clear()

    # ------------------------------------------------------------------ search
    def median_trigger(self) -> Memory:
        """Component-wise median of the memory values that used this rule.

        Falls back to the center of the domain when the rule never fired.
        """
        if not self._samples:
            return self.domain.center()
        medians = tuple(
            statistics.median(sample[dim] for sample in self._samples) for dim in range(3)
        )
        return Memory(*medians)

    def split(self) -> list["Whisker"]:
        """Subdivide this rule into eight children sharing its action (§4.3 step 5)."""
        split_point = self.median_trigger()
        children = []
        for child_domain in self.domain.split(split_point):
            children.append(
                Whisker(domain=child_domain, action=self.action, epoch=self.epoch)
            )
        return children

    def with_action(self, action: Action) -> "Whisker":
        """Copy of this rule with a different action (statistics reset)."""
        return Whisker(domain=self.domain, action=action, epoch=self.epoch)

    # ------------------------------------------------------------------ misc
    def describe(self) -> str:
        """Single-line human-readable description (used by the examples)."""
        low, high = self.domain.as_tuple()
        return (
            f"ack_ewma [{low[0]:.1f},{high[0]:.1f}) "
            f"send_ewma [{low[1]:.1f},{high[1]:.1f}) "
            f"rtt_ratio [{low[2]:.2f},{high[2]:.2f}) -> "
            f"m={self.action.window_multiple:.2f} b={self.action.window_increment:+.1f} "
            f"r={self.action.intersend_ms:.2f}ms (used {self.use_count})"
        )
