"""Unit and property-based tests for RemyCC memory and memory regions."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.memory import (
    EWMA_WEIGHT,
    MAX_MEMORY,
    Memory,
    MemoryRange,
    MemoryTracker,
)

coords = st.floats(min_value=0.0, max_value=MAX_MEMORY, allow_nan=False)


class TestMemory:
    def test_initial_state_is_all_zero(self):
        memory = Memory.initial()
        assert memory.as_tuple() == (0.0, 0.0, 0.0)

    def test_clamping(self):
        memory = Memory(-5.0, 1e9, 3.0).clamped()
        assert memory.ack_ewma == 0.0
        assert memory.send_ewma == MAX_MEMORY
        assert memory.rtt_ratio == 3.0

    def test_tuple_round_trip(self):
        memory = Memory(1.0, 2.0, 3.0)
        assert Memory.from_tuple(memory.as_tuple()) == memory


class TestMemoryTracker:
    def test_first_ack_only_sets_rtt_ratio(self):
        tracker = MemoryTracker()
        memory = tracker.on_ack(ack_time=1.0, echo_sent_time=0.9, rtt=0.1)
        assert memory.ack_ewma == 0.0
        assert memory.send_ewma == 0.0
        assert memory.rtt_ratio == pytest.approx(1.0)

    def test_ewma_update_uses_one_eighth_weight(self):
        tracker = MemoryTracker()
        tracker.on_ack(1.0, 0.9, 0.1)
        memory = tracker.on_ack(1.016, 0.916, 0.1)  # 16 ms gaps
        assert memory.ack_ewma == pytest.approx(EWMA_WEIGHT * 16.0)
        assert memory.send_ewma == pytest.approx(EWMA_WEIGHT * 16.0)

    def test_rtt_ratio_tracks_min(self):
        tracker = MemoryTracker()
        tracker.on_ack(1.0, 0.9, 0.1)
        memory = tracker.on_ack(1.1, 1.0, 0.2)
        assert memory.rtt_ratio == pytest.approx(2.0)
        # A new lower RTT becomes the new floor.
        memory = tracker.on_ack(1.2, 1.15, 0.05)
        assert tracker.min_rtt == pytest.approx(0.05)
        assert memory.rtt_ratio == pytest.approx(1.0)

    def test_reset_returns_to_initial(self):
        tracker = MemoryTracker()
        tracker.on_ack(1.0, 0.9, 0.1)
        tracker.on_ack(1.05, 0.95, 0.12)
        tracker.reset()
        assert tracker.memory == Memory.initial()
        assert tracker.min_rtt is None

    def test_none_rtt_is_tolerated(self):
        tracker = MemoryTracker()
        memory = tracker.on_ack(1.0, 0.9, None)
        assert memory.rtt_ratio == 0.0

    @given(
        gaps=st.lists(st.floats(min_value=0.0001, max_value=10.0), min_size=2, max_size=40),
        rtt=st.floats(min_value=0.001, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_memory_always_within_bounds(self, gaps, rtt):
        tracker = MemoryTracker()
        now = 0.0
        for gap in gaps:
            now += gap
            memory = tracker.on_ack(now, now - rtt, rtt)
            for value in memory:
                assert 0.0 <= value <= MAX_MEMORY


class TestMemoryRange:
    def test_whole_space_contains_everything(self):
        space = MemoryRange.whole_space()
        assert space.contains(Memory(0, 0, 0))
        assert space.contains(Memory(MAX_MEMORY, MAX_MEMORY, MAX_MEMORY))
        assert space.contains(Memory(1.0, 5.0, 2.0))

    def test_interior_upper_bound_is_exclusive(self):
        region = MemoryRange(Memory(0, 0, 0), Memory(10, 10, 10))
        assert region.contains(Memory(9.999, 0, 0))
        assert not region.contains(Memory(10, 0, 0))

    def test_max_memory_edge_is_inclusive(self):
        # A region whose upper bound sits on the global maximum includes that
        # edge (so MAX_MEMORY maps to a rule); interior bounds stay exclusive.
        top = MemoryRange(
            Memory(10, 10, 10), Memory(MAX_MEMORY, MAX_MEMORY, MAX_MEMORY)
        )
        assert top.contains(Memory(MAX_MEMORY, MAX_MEMORY, MAX_MEMORY))
        assert top.contains(Memory(10, MAX_MEMORY, 10))
        mixed = MemoryRange(Memory(0, 0, 0), Memory(10, MAX_MEMORY, 10))
        assert mixed.contains(Memory(5, MAX_MEMORY, 5))
        assert not mixed.contains(Memory(10, MAX_MEMORY, 5))
        assert not mixed.contains(Memory(5, MAX_MEMORY, 10))

    @given(
        point=st.tuples(coords, coords, coords),
        lows=st.tuples(coords, coords, coords),
        highs=st.tuples(coords, coords, coords),
    )
    @settings(max_examples=200, deadline=None)
    def test_contains_point_matches_contains(self, point, lows, highs):
        lower = Memory(*(min(a, b) for a, b in zip(lows, highs)))
        upper = Memory(*(max(a, b) for a, b in zip(lows, highs)))
        region = MemoryRange(lower, upper)
        memory = Memory(*point)
        assert region.contains_point(*point) == region.contains(memory)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            MemoryRange(Memory(5, 0, 0), Memory(1, 10, 10))

    def test_split_produces_eight_disjoint_children(self):
        region = MemoryRange.whole_space()
        children = region.split()
        assert len(children) == 8
        total_volume = sum(child.volume() for child in children)
        assert total_volume == pytest.approx(region.volume())

    def test_split_point_on_boundary_falls_back_to_center(self):
        region = MemoryRange(Memory(0, 0, 0), Memory(8, 8, 8))
        children = region.split(at=Memory(0, 0, 0))  # degenerate split point
        assert all(child.volume() > 0 for child in children)

    @pytest.mark.parametrize("low", [0.0, 1234.5, math.nextafter(MAX_MEMORY, 0.0)])
    @pytest.mark.parametrize("thin", [0, 1, 2])
    def test_a_dimension_with_no_interior_float_is_not_split(self, low, thin):
        # One ulp wide in dimension ``thin``: its "center" rounds to an
        # endpoint, so nudging there would make a zero-width child.
        high = math.nextafter(low, math.inf)
        lower, upper = [0.0, 0.0, 0.0], [8.0, 8.0, 8.0]
        lower[thin], upper[thin] = low, high
        region = MemoryRange(Memory(*lower), Memory(*upper))
        for at in (None, Memory(*lower), Memory(*upper), Memory(4.0, 4.0, 4.0)):
            children = region.split(at)
            assert len(children) == 4
            for child in children:
                for dim, (child_low, child_high) in enumerate(zip(child.lower, child.upper)):
                    assert child_low < child_high
                    if dim == thin:
                        assert (child_low, child_high) == (low, high)
            for probe in (low, high):
                point = [1.0, 1.0, 1.0]
                point[thin] = probe
                holders = [c for c in children if c.contains(Memory(*point))]
                assert len(holders) == int(region.contains(Memory(*point)))

    @given(point=st.tuples(coords, coords, coords))
    @settings(max_examples=100, deadline=None)
    def test_split_children_tile_the_space(self, point):
        region = MemoryRange.whole_space()
        children = region.split()
        memory = Memory(*point)
        matches = [child for child in children if child.contains(memory)]
        assert len(matches) == 1

    @given(
        point=st.tuples(coords, coords, coords),
        split=st.tuples(
            st.floats(min_value=1.0, max_value=MAX_MEMORY - 1),
            st.floats(min_value=1.0, max_value=MAX_MEMORY - 1),
            st.floats(min_value=1.0, max_value=MAX_MEMORY - 1),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_split_still_tiles(self, point, split):
        region = MemoryRange.whole_space()
        children = region.split(at=Memory(*split))
        memory = Memory(*point)
        matches = [child for child in children if child.contains(memory)]
        assert len(matches) == 1
