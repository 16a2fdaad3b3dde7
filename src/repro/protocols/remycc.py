"""RemyCC runtime: executes a computer-generated rule table at the sender (§4.2).

Operation is a sequence of lookups triggered by incoming ACKs: each ACK
updates the three-variable memory (ack_ewma, send_ewma, rtt_ratio), the
matching whisker is looked up in the rule table, and its action is applied —

    cwnd ← m · cwnd + b,   intersend ← r milliseconds,

where the intersend time is enforced by the transport harness as a lower
bound on the gap between successive transmissions.

The same class is used in two roles: executing a finished RemyCC during the
evaluation experiments, and executing a *candidate* rule table inside the
optimizer's inner loop (``training=True`` additionally records per-whisker
use counts and triggering memory samples for the split step).
"""

from __future__ import annotations

from typing import Optional

from repro.core.action import MAX_WINDOW_PACKETS
from repro.core.memory import EWMA_WEIGHT, MAX_MEMORY, MemoryTracker
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.packet import AckInfo
from repro.protocols.base import CongestionControl

_EWMA_KEEP = 1 - EWMA_WEIGHT


class RemyCCProtocol(CongestionControl):
    """Sender-side execution of a Remy-designed rule table."""

    name = "remy"

    def __init__(
        self,
        tree: WhiskerTree,
        initial_window: float = 1.0,
        training: bool = False,
        label: Optional[str] = None,
    ):
        super().__init__(initial_window=initial_window)
        self.tree = tree
        self.training = training
        self.tracker = MemoryTracker()
        # Last-leaf cache: consecutive ACKs usually hit the same rule, so the
        # previous leaf is revalidated against its six bounds before walking
        # the tree.  ``tree.version`` invalidates the cache whenever the
        # tree's structure changes (split_whisker); an action is changed in
        # place on its whisker (the optimizer's hill-climb), which the cache
        # sees through the shared object.  Held as (leaf, version, low0,
        # high0, low1, high1, low2, high2); tree versions start at 0, so -1
        # never validates.
        self._cache: tuple = (None, -1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        if label is not None:
            self.name = label
        elif tree.name:
            self.name = tree.name
        # Start from the default action's pacing so the very first packets of
        # a flow are already paced (the memory is all-zeroes at that point).
        initial_action = tree.action_for(self.tracker.memory)
        self.intersend_time = initial_action.intersend_seconds

    # ------------------------------------------------------------------ hooks
    def on_flow_start(self, now: float) -> None:
        self.tracker.reset()
        initial_action = self.tree.action_for(self.tracker.memory)
        # Consult the rule table for the all-zeroes start-up state right away:
        # the start-up rule's window increment is effectively the RemyCC's
        # initial window (how hard it grabs spare bandwidth in the first RTT).
        self.cwnd = initial_action.apply(self.cwnd)
        self.intersend_time = initial_action.intersend_seconds

    def on_ack(self, ack: AckInfo) -> None:
        # The whole per-ACK decision in one frame: ``MemoryTracker.on_ack``,
        # the clamp, ``MemoryRange.contains_point`` on the cached leaf,
        # ``Action.apply`` and ``Action.intersend_seconds`` inlined — the same
        # float expressions in the same order, which
        # tests/test_remycc_equivalence.py checks against those public pieces.
        tracker = self.tracker
        memory = tracker.memory
        rtt = ack.rtt
        if rtt is not None and rtt > 0:
            min_rtt = tracker._min_rtt
            if min_rtt is None or rtt < min_rtt:
                tracker._min_rtt = min_rtt = rtt
            memory.rtt_ratio = rtt / min_rtt
        ack_time = ack.now
        echo_time = ack.echo_sent_time
        last_ack = tracker._last_ack_time
        last_echo = tracker._last_echo_time
        tracker._last_ack_time = ack_time
        tracker._last_echo_time = echo_time
        m0 = memory.ack_ewma
        m1 = memory.send_ewma
        m2 = memory.rtt_ratio
        if last_ack is not None and last_echo is not None:
            gap = (ack_time - last_ack) * 1000.0
            m0 = _EWMA_KEEP * m0 + EWMA_WEIGHT * (gap if gap > 0.0 else 0.0)
            gap = (echo_time - last_echo) * 1000.0
            m1 = _EWMA_KEEP * m1 + EWMA_WEIGHT * (gap if gap > 0.0 else 0.0)
            # All three signals are non-negative by construction, so only
            # the upper bound can bind.
            if m0 > MAX_MEMORY:
                m0 = MAX_MEMORY
            if m1 > MAX_MEMORY:
                m1 = MAX_MEMORY
            if m2 > MAX_MEMORY:
                memory.rtt_ratio = m2 = MAX_MEMORY
            memory.ack_ewma = m0
            memory.send_ewma = m1

        tree = self.tree
        leaf, version, low0, high0, low1, high1, low2, high2 = self._cache
        if (
            version != tree.version
            or m0 < low0 or m0 > high0 or (m0 == high0 and high0 < MAX_MEMORY)
            or m1 < low1 or m1 > high1 or (m1 == high1 and high1 < MAX_MEMORY)
            or m2 < low2 or m2 > high2 or (m2 == high2 and high2 < MAX_MEMORY)
        ):
            leaf = tree.find_point(m0, m1, m2)
            lower = leaf.domain.lower
            upper = leaf.domain.upper
            self._cache = (
                leaf, tree.version,
                lower.ack_ewma, upper.ack_ewma,
                lower.send_ewma, upper.send_ewma,
                lower.rtt_ratio, upper.rtt_ratio,
            )

        action = leaf.use(memory) if self.training else leaf.action
        window = action.window_multiple * self.cwnd + action.window_increment
        if window < 0.0:
            window = 0.0
        elif window > MAX_WINDOW_PACKETS:
            window = MAX_WINDOW_PACKETS
        self.cwnd = window
        self.intersend_time = action.intersend_ms / 1000.0

    def on_loss(self, now: float) -> None:
        # RemyCCs do not use loss as a congestion signal (§4.1); the harness's
        # retransmission machinery recovers the data, and the rule table keeps
        # governing the window.
        return

    def on_timeout(self, now: float) -> None:
        # Inherit conservative timeout behaviour from the host TCP sender:
        # collapse the window and restart from the initial memory state.
        self.cwnd = self._initial_window
        self.tracker.reset()

    # ------------------------------------------------------------------ info
    @property
    def memory(self):
        """Current memory state (mainly for tests and debugging)."""
        return self.tracker.memory

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemyCCProtocol(name={self.name!r}, rules={len(self.tree)}, "
            f"cwnd={self.cwnd:.1f}, intersend={self.intersend_time * 1000:.2f}ms)"
        )
