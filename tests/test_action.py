"""Unit and property-based tests for RemyCC actions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.action import (
    ACTION_DECIMALS,
    Action,
    INCREMENT_GRANULARITY,
    INTERSEND_GRANULARITY,
    MAX_INTERSEND_MS,
    MAX_WINDOW_INCREMENT,
    MAX_WINDOW_MULTIPLE,
    MAX_WINDOW_PACKETS,
    MIN_INTERSEND_MS,
    MIN_WINDOW_INCREMENT,
    MIN_WINDOW_MULTIPLE,
    MULTIPLE_GRANULARITY,
)


class TestAction:
    def test_default_matches_paper(self):
        action = Action.default()
        assert action.window_multiple == 1.0
        assert action.window_increment == 1.0
        assert action.intersend_ms == 0.01

    def test_apply_combines_multiple_and_increment(self):
        action = Action(window_multiple=0.5, window_increment=3.0, intersend_ms=1.0)
        assert action.apply(10.0) == pytest.approx(8.0)

    def test_apply_never_negative(self):
        action = Action(window_multiple=0.0, window_increment=-5.0, intersend_ms=1.0)
        assert action.apply(10.0) == 0.0

    def test_apply_capped(self):
        action = Action(window_multiple=2.0, window_increment=100.0, intersend_ms=1.0)
        assert action.apply(1e9) == MAX_WINDOW_PACKETS

    def test_intersend_seconds(self):
        assert Action(intersend_ms=5.0).intersend_seconds == pytest.approx(0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            Action(window_multiple=-0.1)
        with pytest.raises(ValueError):
            Action(intersend_ms=0.0)

    @pytest.mark.parametrize("component", ["window_multiple", "window_increment", "intersend_ms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_components_are_rejected(self, component, value):
        # ``nan < 0`` and ``inf <= 0`` are both false, so the range checks
        # alone let these through — into every cwnd the rule touches.
        with pytest.raises(ValueError, match=f"{component} must be finite"):
            Action.default().with_values(**{component: value})
        with pytest.raises(ValueError, match="window_multiple must be finite"):
            Action(float("nan"), 1.0, float("inf"))

    def test_neighbors_count_matches_paper_scale(self):
        # magnitudes=2 gives 5*5*5 - 1 = 124 candidates ("roughly 100").
        neighbors = list(Action.default().neighbors(magnitudes=2))
        assert 100 <= len(neighbors) <= 124
        assert Action.default() not in neighbors

    def test_neighbors_single_magnitude(self):
        neighbors = list(Action.default().neighbors(magnitudes=1))
        assert 20 <= len(neighbors) <= 26

    def test_neighbors_requires_positive_magnitudes(self):
        with pytest.raises(ValueError):
            list(Action.default().neighbors(magnitudes=0))

    def test_with_values(self):
        action = Action.default().with_values(window_increment=5.0)
        assert action.window_increment == 5.0
        assert action.window_multiple == 1.0

    @given(
        m=st.floats(min_value=0.0, max_value=MAX_WINDOW_MULTIPLE),
        b=st.floats(min_value=MIN_WINDOW_INCREMENT, max_value=MAX_WINDOW_INCREMENT),
        r=st.floats(min_value=MIN_INTERSEND_MS, max_value=MAX_INTERSEND_MS),
        magnitudes=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_neighbors_always_within_bounds(self, m, b, r, magnitudes):
        action = Action(m, b, r)
        for candidate in action.neighbors(magnitudes=magnitudes):
            assert MIN_WINDOW_MULTIPLE <= candidate.window_multiple <= MAX_WINDOW_MULTIPLE
            assert MIN_WINDOW_INCREMENT <= candidate.window_increment <= MAX_WINDOW_INCREMENT
            assert MIN_INTERSEND_MS <= candidate.intersend_ms <= MAX_INTERSEND_MS

    @given(
        m=st.floats(min_value=0.0, max_value=MAX_WINDOW_MULTIPLE),
        b=st.floats(min_value=MIN_WINDOW_INCREMENT, max_value=MAX_WINDOW_INCREMENT),
        window=st.floats(min_value=0.0, max_value=1e7),
    )
    @settings(max_examples=100, deadline=None)
    def test_apply_result_always_in_range(self, m, b, window):
        action = Action(m, b, 1.0)
        result = action.apply(window)
        assert 0.0 <= result <= MAX_WINDOW_PACKETS

    def test_clamped_respects_bounds(self):
        action = Action(window_multiple=1.9, window_increment=300.0, intersend_ms=0.5)
        # window_increment above the bound is only adjusted by clamped().
        clamped = Action(
            window_multiple=action.window_multiple,
            window_increment=action.window_increment,
            intersend_ms=action.intersend_ms,
        ).clamped()
        assert clamped.window_increment == MAX_WINDOW_INCREMENT


GRANULARITIES = (MULTIPLE_GRANULARITY, INCREMENT_GRANULARITY, INTERSEND_GRANULARITY)

#: One lattice step per component: -1, 0 or +1 granularities, not all zero.
lattice_steps = st.tuples(*[st.sampled_from([-1, 0, 1])] * 3).filter(any)


def step(action: Action, direction: tuple[int, int, int]) -> Action:
    """The one-magnitude neighbour of ``action`` lying in ``direction``."""
    [neighbour] = [
        candidate
        for candidate in action.neighbors(1)
        if all(
            (moved > stayed) - (moved < stayed) == sign
            for moved, stayed, sign in zip(candidate.as_tuple(), action.as_tuple(), direction)
        )
    ]
    return neighbour


def is_clear(action: Action, clearance: int) -> bool:
    """Every component is at least ``clearance`` steps inside its bounds."""
    margin = clearance - 0.5
    return (
        MIN_WINDOW_MULTIPLE + margin * MULTIPLE_GRANULARITY < action.window_multiple
        and action.window_multiple < MAX_WINDOW_MULTIPLE - margin * MULTIPLE_GRANULARITY
        and abs(action.window_increment) < MAX_WINDOW_INCREMENT - margin * INCREMENT_GRANULARITY
        and MIN_INTERSEND_MS + margin * INTERSEND_GRANULARITY < action.intersend_ms
        and action.intersend_ms < MAX_INTERSEND_MS - margin * INTERSEND_GRANULARITY
    )


def walk(steps: list[tuple[int, int, int]], clearance: int) -> list[Action]:
    """A lattice walk from the default action that stays clear of every clamp.

    The default sits one pacing step above its floor, so the walk first
    takes ``clearance`` pacing steps up; after that a step is taken only if
    it leaves the action ``clearance`` steps clear.  Returns every action
    visited after the run-up, the last one being where the walk ends.
    """
    action = Action.default()
    for _ in range(clearance):
        action = step(action, (0, 0, 1))
    path = [action]
    for direction in steps:
        moved = step(path[-1], direction)
        if is_clear(moved, clearance):
            path.append(moved)
    return path


class TestActionLattice:
    """Candidate actions live on a decimal lattice, so the repeats a climb
    meets are repeats as *equal floats* — what the optimizer's memo keys on."""

    @given(steps=st.lists(lattice_steps, max_size=200), magnitudes=st.sampled_from([1, 2]))
    @settings(max_examples=30, deadline=None)
    def test_neighbourhood_is_symmetric(self, steps, magnitudes):
        # Clear enough that no neighbour of a neighbour is clamped.
        action = walk(steps, clearance=2 * 8 ** (magnitudes - 1) + 1)[-1]
        for neighbour in action.neighbors(magnitudes):
            assert action in set(neighbour.neighbors(magnitudes))

    @given(steps=st.lists(lattice_steps, max_size=200), direction=lattice_steps)
    @settings(max_examples=60, deadline=None)
    def test_what_a_step_leaves_already_scored(self, steps, direction):
        # A climb that just stepped a -> b has scored N(a) and a itself.
        a = walk(steps, clearance=3)[-1]
        b = step(a, direction)
        neighbours = list(b.neighbors(1))
        assert len(neighbours) == len(set(neighbours)) == 26
        scored = set(a.neighbors(1)) | {a}
        axes = sum(1 for sign in direction if sign)
        assert sum(n in scored for n in neighbours) == {1: 17, 2: 11, 3: 7}[axes]

    @given(steps=st.lists(lattice_steps, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_a_walk_retraced_returns_to_the_start(self, steps):
        path = walk(steps, clearance=1)
        action = path[-1]
        for earlier in reversed(path[:-1]):
            [action] = [n for n in action.neighbors(1) if n == earlier]
        assert action == path[0]

    def test_four_pacing_steps_and_back(self):
        # 0.01 + 4 * 0.05 is 0.21000000000000002 in floats, and coming back
        # from there gives 0.010000000000000023: the lattice hides both.
        action = Action.default()
        for _ in range(4):
            action = step(action, (0, 0, 1))
        assert action == Action(1.0, 1.0, 0.21)
        for _ in range(4):
            action = step(action, (0, 0, -1))
        assert action == Action.default()

    @pytest.mark.parametrize("magnitudes", [1, 2, 3])
    @pytest.mark.parametrize(
        "corner, inward",
        [
            (Action(MIN_WINDOW_MULTIPLE, MIN_WINDOW_INCREMENT, MIN_INTERSEND_MS), +1),
            (Action(MAX_WINDOW_MULTIPLE, MAX_WINDOW_INCREMENT, MAX_INTERSEND_MS), -1),
        ],
    )
    def test_at_a_clamp_a_step_outwards_lands_on_the_bound_itself(
        self, corner, inward, magnitudes
    ):
        neighbours = list(corner.neighbors(magnitudes))
        for index, (bound, granularity) in enumerate(zip(corner.as_tuple(), GRANULARITIES)):
            reachable = {bound} | {
                round(bound + inward * granularity * 8.0**power, ACTION_DECIMALS)
                for power in range(magnitudes)
            }
            assert {candidate.as_tuple()[index] for candidate in neighbours} == reachable
            assert round(bound, ACTION_DECIMALS) == bound

    def test_an_off_lattice_start_is_a_legal_key(self):
        # A table written before the lattice existed: loaded as it is spelt.
        loaded = Action(0.96, 5.0, 0.21000000000000002)
        assert {loaded: "score"}[Action(0.96, 5.0, 0.21000000000000002)] == "score"
        for candidate in loaded.neighbors(2):
            for value in candidate.as_tuple():
                assert round(value, ACTION_DECIMALS) == value

    @given(
        m=st.floats(min_value=0.0, max_value=MAX_WINDOW_MULTIPLE),
        b=st.floats(min_value=MIN_WINDOW_INCREMENT, max_value=MAX_WINDOW_INCREMENT),
        r=st.floats(min_value=MIN_INTERSEND_MS, max_value=MAX_INTERSEND_MS),
        magnitudes=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_neighbors_never_yields_self(self, m, b, r, magnitudes):
        action = Action(m, b, r)
        assert action not in list(action.neighbors(magnitudes))
