"""The one-frame ``RemyCCProtocol.on_ack`` equals the public pieces it inlines.

``on_ack`` folds the memory update, the clamp, the last-leaf containment
check and the action application into a single Python frame.  The reference
here is built from the public pieces only — ``MemoryTracker.on_ack`` +
``WhiskerTree.find`` + ``Whisker.use`` + ``Action.apply`` +
``Action.intersend_seconds`` — with no leaf cache at all, and is driven with
the same seeded ``AckInfo`` stream on its own copy of the tree.  After every
step the two must agree exactly (``==`` on floats, no tolerance): window,
pacing interval, memory, and every whisker's use count and sample reservoir.

The streams cover what the inlining could get wrong: ``rtt`` of ``None`` / 0 /
positive, RTT ratios and ACK gaps beyond the ``MAX_MEMORY`` clamp,
non-monotone echo times, and — for the cache — ``split_whisker`` /
``replace_action`` version bumps, ``on_timeout`` and ``reset`` mid-stream.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.action import Action
from repro.core.memory import MAX_MEMORY, Memory, MemoryTracker
from repro.core.serialization import pretrained_remycc
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.packet import AckInfo
from repro.protocols.remycc import RemyCCProtocol

FULL = os.environ.get("SCENARIO_MATRIX") == "full"
SEEDS = range(12) if FULL else range(3)
STEPS = 1500 if FULL else 500


class PublicPiecesRemyCC:
    """``RemyCCProtocol``'s contract spelled with the public helpers."""

    def __init__(self, tree: WhiskerTree, training: bool, initial_window: float = 1.0):
        self.tree = tree
        self.training = training
        self.tracker = MemoryTracker()
        self.initial_window = initial_window
        self.cwnd = initial_window
        self.intersend_time = tree.action_for(self.tracker.memory).intersend_seconds

    @property
    def memory(self) -> Memory:
        return self.tracker.memory

    def reset(self, now: float) -> None:
        self.tracker.reset()
        action = self.tree.action_for(self.tracker.memory)
        self.cwnd = action.apply(self.initial_window)
        self.intersend_time = action.intersend_seconds

    def on_ack(self, ack: AckInfo) -> None:
        memory = self.tracker.on_ack(ack.now, ack.echo_sent_time, ack.rtt)
        leaf = self.tree.find(memory)
        action = leaf.use(memory) if self.training else leaf.action
        self.cwnd = action.apply(self.cwnd)
        self.intersend_time = action.intersend_seconds

    def on_timeout(self, now: float) -> None:
        self.cwnd = self.initial_window
        self.tracker.reset()


def _single_rule() -> WhiskerTree:
    return WhiskerTree(Action(1.0, 1.0, 0.5))


def _twice_split_octree() -> WhiskerTree:
    tree = WhiskerTree(Action(0.9, 2.0, 1.5))
    root = tree.find(Memory(0.0, 0.0, 0.0))
    for point in ((2.0, 3.0, 1.1), (4.0, 2.0, 1.4), (1.0, 6.0, 1.2)):
        root.use(Memory(*point))
    children = tree.split_whisker(root)
    tree.replace_action(children[0], Action(1.1, -1.0, 0.2))
    tree.split_whisker(children[0])  # no samples: splits at the centre
    tree.reset_statistics()
    return tree


def _pretrained_grid() -> WhiskerTree:
    return pretrained_remycc("delta1")


TREES = {
    "single-rule": _single_rule,
    "twice-split-octree": _twice_split_octree,
    "pretrained-grid": _pretrained_grid,
}


def _ack(rng: random.Random, now: float) -> AckInfo:
    kind = rng.random()
    if kind < 0.08:
        rtt = None  # retransmitted segment (Karn)
    elif kind < 0.12:
        rtt = 0.0
    elif kind < 0.16:
        rtt = rng.choice((1e-7, 5.0, 4000.0))  # ratios past the clamp
    else:
        rtt = rng.uniform(0.02, 0.4)
    # Echo times follow the ACK clock only loosely: out-of-order ACKs make
    # them step backwards.
    echo = now - rng.uniform(0.0, 0.5)
    return AckInfo(now, 1500, rtt, echo, False, 1, 0.0)


def _assert_equal(step: int, fast: RemyCCProtocol, ref: PublicPiecesRemyCC) -> None:
    assert fast.cwnd == ref.cwnd, step
    assert fast.intersend_time == ref.intersend_time, step
    assert fast.memory.as_tuple() == ref.memory.as_tuple(), step
    for mine, theirs in zip(fast.tree.whiskers(), ref.tree.whiskers(), strict=True):
        assert mine.use_count == theirs.use_count, step
        assert mine._samples == theirs._samples, step


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("training", [False, True], ids=["execute", "train"])
@pytest.mark.parametrize("shape", TREES)
def test_one_frame_path_matches_the_public_pieces(shape, training, seed):
    rng = random.Random(f"{shape}/{training}/{seed}")
    fast = RemyCCProtocol(TREES[shape](), training=training)
    ref = PublicPiecesRemyCC(TREES[shape](), training=training)
    _assert_equal(-1, fast, ref)
    fast.reset(0.0)
    ref.reset(0.0)
    now = 0.0
    clamped = False
    for step in range(STEPS):
        kind = rng.random()
        if kind < 0.90:
            # Mostly millisecond ACK spacing; now and then a silence long
            # enough (> 131 s at weight 1/8) to drive the EWMA into the clamp.
            now += rng.choice((0.0, 0.0005, 0.002, 0.03, 1.0, 200.0, 5000.0))
            ack = _ack(rng, now)
            fast.on_ack(ack)
            ref.on_ack(ack)
            clamped = clamped or MAX_MEMORY in fast.memory.as_tuple()
        elif kind < 0.93:
            fast.on_timeout(now)
            ref.on_timeout(now)
        elif kind < 0.96:
            fast.reset(now)
            ref.reset(now)
        else:
            # A version bump on both trees, on the rule at the same position
            # (the one the protocol has cached, half of the time).
            whiskers = fast.tree.whiskers()
            index = (
                whiskers.index(fast.tree.find(fast.memory))
                if rng.random() < 0.5
                else rng.randrange(len(whiskers))
            )
            if kind < 0.98 and len(whiskers) < 400:
                for tree in (fast.tree, ref.tree):
                    tree.split_whisker(tree.whiskers()[index])
            else:
                action = Action(
                    rng.uniform(0.0, 2.0), rng.uniform(-8.0, 8.0), rng.uniform(0.01, 5.0)
                )
                for tree in (fast.tree, ref.tree):
                    tree.replace_action(tree.whiskers()[index], action)
        _assert_equal(step, fast, ref)
    assert clamped, "the stream never reached the MAX_MEMORY clamp"
    if training:
        assert fast.tree.total_use_count() > 0


def test_an_in_place_action_swap_is_seen_without_a_version_bump():
    # The hill-climb writes ``whisker.action`` directly; the cached leaf is
    # the same object, so the next ACK must already apply the new action.
    tree = _single_rule()
    protocol = RemyCCProtocol(tree)
    protocol.reset(0.0)
    protocol.on_ack(AckInfo(0.1, 1500, 0.1, 0.0, False, 1, 0.0))
    tree.whiskers()[0].action = Action(0.0, 7.0, 3.0)
    protocol.on_ack(AckInfo(0.2, 1500, 0.1, 0.1, False, 1, 0.0))
    assert protocol.cwnd == 7.0
    assert protocol.intersend_time == 3.0 / 1000.0
