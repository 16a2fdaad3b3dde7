"""A whisker: one rule of a RemyCC, mapping a memory region to an action.

The name follows the original Remy implementation.  Besides the mapping, a
whisker carries the bookkeeping the optimizer needs: a use count (how many
times the rule fired during the last evaluation), the epoch marker of the
greedy search, and a bounded sample of the memory values that triggered the
rule, from which the median split point is computed when the rule is
subdivided.

The sample is deterministic and spread over everything it summarizes: a rule
keeps every ``stride``-th trigger, and whenever the list reaches
:data:`SAMPLE_RESERVOIR` entries it drops every other one and doubles the
stride, so after N uses it holds triggers s, 2s, 3s, … for a power-of-two s.
One simulation's statistics travel as a :class:`WhiskerUsage` per rule, and
:meth:`Whisker.set_usage` folds the summaries of several simulations into one
— every simulation thinned to one common stride, in submission order, so each
is represented in proportion to its uses.  This module is the only place that
knows the policy.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.action import Action
from repro.core.memory import Memory, MemoryRange

#: Bound on the triggering memory samples retained per whisker (always fewer
#: than this).  It only needs to be large enough for a stable median estimate.
SAMPLE_RESERVOIR = 512


@dataclass(slots=True)
class WhiskerUsage:
    """One rule's statistics over one simulation: what a job sends back.

    ``samples`` holds triggers ``stride``, ``2·stride``, … of the
    ``use_count`` that fired the rule, so ``len(samples) == use_count //
    stride``.
    """

    use_count: int
    stride: int
    samples: list[tuple[float, float, float]]


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
        if self.use_count % self._sample_stride == 0:
            samples = self._samples
            samples.append(memory.as_tuple())
            if len(samples) >= SAMPLE_RESERVOIR:
                # Striding keeps a spread of samples without an RNG, so
                # evaluations stay deterministic: the survivors are the
                # multiples of the doubled stride.
                del samples[::2]
                self._sample_stride *= 2
        return self.action

    def reset_statistics(self) -> None:
        """Forget every use: a reset rule samples like a fresh one."""
        self.use_count = 0
        self._samples.clear()
        self._sample_stride = 1

    def usage(self) -> WhiskerUsage:
        """Snapshot of the statistics (the sample list is copied)."""
        return WhiskerUsage(self.use_count, self._sample_stride, list(self._samples))

    def set_usage(self, parts: Sequence[WhiskerUsage]) -> None:
        """Replace the statistics with the fold of per-simulation summaries.

        A pure function of the ordered ``parts``: the use count is their
        exact sum, and the sample is every ``stride``-th trigger of every
        part, in order, for the smallest power-of-two stride — no finer than
        any part's own — that keeps the total under :data:`SAMPLE_RESERVOIR`.
        Folding a single part reproduces it.
        """
        stride = max((part.stride for part in parts), default=1)
        while sum(part.use_count // stride for part in parts) >= SAMPLE_RESERVOIR:
            stride *= 2
        samples: list[tuple[float, float, float]] = []
        for part in parts:
            step = stride // part.stride
            samples.extend(part.samples[step - 1 :: step])
        self.use_count = sum(part.use_count for part in parts)
        self._samples = samples
        self._sample_stride = stride

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
        """Subdivide this rule into (normally eight) children sharing its action (§4.3 step 5)."""
        split_point = self.median_trigger()
        children = []
        for child_domain in self.domain.split(split_point):
            children.append(
                Whisker(domain=child_domain, action=self.action, epoch=self.epoch)
            )
        return children

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
