"""Unit and property-based tests for whiskers and the whisker tree."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.action import Action
from repro.core.memory import MAX_MEMORY, Memory, MemoryRange
from repro.core.whisker import SAMPLE_RESERVOIR, Whisker
from repro.core.whisker_tree import WhiskerTree

coords = st.floats(min_value=0.0, max_value=MAX_MEMORY, allow_nan=False)
memories = st.tuples(coords, coords, coords).map(lambda t: Memory(*t))


class TestWhisker:
    def test_use_counts_and_samples(self):
        whisker = Whisker(domain=MemoryRange.whole_space())
        for i in range(10):
            whisker.use(Memory(i, i, 1.0))
        assert whisker.use_count == 10
        median = whisker.median_trigger()
        assert median.ack_ewma == pytest.approx(4.5)
        assert median.rtt_ratio == pytest.approx(1.0)

    def test_median_falls_back_to_center_without_samples(self):
        whisker = Whisker(domain=MemoryRange(Memory(0, 0, 0), Memory(10, 10, 10)))
        assert whisker.median_trigger() == Memory(5, 5, 5)

    def test_reset_statistics(self):
        whisker = Whisker(domain=MemoryRange.whole_space())
        whisker.use(Memory(1, 1, 1))
        whisker.reset_statistics()
        assert whisker.use_count == 0
        assert whisker.median_trigger() == whisker.domain.center()

    def test_split_preserves_action_and_epoch(self):
        whisker = Whisker(domain=MemoryRange.whole_space(), action=Action(1.5, 2.0, 3.0), epoch=4)
        whisker.use(Memory(100, 100, 2.0))
        children = whisker.split()
        assert len(children) == 8
        for child in children:
            assert child.action == whisker.action
            assert child.epoch == 4

    def test_describe_mentions_action(self):
        whisker = Whisker(domain=MemoryRange.whole_space())
        assert "m=" in whisker.describe()


def used(uses: int, job: float = 0.0) -> Whisker:
    """A rule fired ``uses`` times; its k-th trigger is the memory (k, job, 0)."""
    whisker = Whisker(domain=MemoryRange.whole_space())
    for k in range(1, uses + 1):
        whisker.use(Memory(float(k), job, 0.0))
    return whisker


class TestUsageSummary:
    """The bounded trigger sample behind the split point, and its fold."""

    @given(st.integers(min_value=0, max_value=5 * SAMPLE_RESERVOIR))
    @settings(max_examples=30, deadline=None)
    def test_kept_samples_are_every_stride_th_trigger(self, uses):
        usage = used(uses).usage()
        stride = usage.stride
        assert usage.use_count == uses
        assert stride & (stride - 1) == 0  # a power of two
        assert [sample[0] for sample in usage.samples] == [
            float(k) for k in range(stride, uses + 1, stride)
        ]
        assert len(usage.samples) < SAMPLE_RESERVOIR
        # ... and no coarser than the bound forced.
        assert stride == 1 or uses // (stride // 2) >= SAMPLE_RESERVOIR

    def test_reused_whisker_samples_like_a_fresh_one(self):
        whisker = used(3 * SAMPLE_RESERVOIR)
        assert whisker.usage().stride > 1
        whisker.reset_statistics()
        for k in range(1, 11):
            whisker.use(Memory(float(k), 0.0, 0.0))
        assert whisker.usage() == used(10).usage()

    @given(st.integers(min_value=0, max_value=3 * SAMPLE_RESERVOIR))
    @settings(max_examples=20, deadline=None)
    def test_fold_of_one_job_is_the_identity(self, uses):
        summary = used(uses).usage()
        target = used(7)  # set, not added to
        target.set_usage([summary])
        assert target.usage() == summary

    @given(st.lists(st.integers(min_value=0, max_value=4 * SAMPLE_RESERVOIR), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_fold_sums_counts_stays_bounded_and_represents_every_job(self, uses):
        parts = [used(count, job=float(job)).usage() for job, count in enumerate(uses)]
        target = used(7)
        target.set_usage(parts)
        merged = target.usage()
        assert merged.use_count == sum(uses)
        assert len(merged.samples) < SAMPLE_RESERVOIR
        assert merged.stride >= max((part.stride for part in parts), default=1)
        # Every job, in submission order, contributes its triggers S, 2S, …
        # for the merged stride S — in proportion to its uses, wherever in
        # the job they fell, and at least once if it fired S times.
        assert merged.samples == [
            (float(k), float(job), 0.0)
            for job, count in enumerate(uses)
            for k in range(merged.stride, count + 1, merged.stride)
        ]


class TestWhiskerTree:
    def test_starts_with_single_default_rule(self):
        tree = WhiskerTree()
        assert len(tree) == 1
        assert tree.whiskers()[0].action == Action.default()

    def test_lookup_always_finds_a_rule(self):
        tree = WhiskerTree()
        assert tree.find(Memory(1, 2, 3)) is tree.whiskers()[0]

    def test_use_increments_counts(self):
        tree = WhiskerTree()
        tree.use(Memory(1, 1, 1))
        tree.use(Memory(2, 2, 2))
        assert tree.total_use_count() == 2

    def test_action_for_does_not_touch_counts(self):
        tree = WhiskerTree()
        tree.action_for(Memory(1, 1, 1))
        assert tree.total_use_count() == 0

    def test_split_grows_tree_to_eight_leaves(self):
        tree = WhiskerTree()
        whisker = tree.whiskers()[0]
        whisker.use(Memory(10, 10, 2.0))
        tree.split_whisker(whisker)
        assert len(tree) == 8

    def test_most_used_respects_epoch(self):
        tree = WhiskerTree()
        whisker = tree.whiskers()[0]
        whisker.use(Memory(1, 1, 1))
        assert tree.most_used(epoch=0) is whisker
        whisker.epoch = 1
        assert tree.most_used(epoch=0) is None
        assert tree.most_used() is whisker

    def test_most_used_requires_nonzero_use(self):
        tree = WhiskerTree()
        assert tree.most_used() is None

    def test_set_epoch_and_reset_statistics(self):
        tree = WhiskerTree()
        tree.use(Memory(1, 1, 1))
        tree.set_epoch(3)
        tree.reset_statistics()
        whisker = tree.whiskers()[0]
        assert whisker.epoch == 3
        assert whisker.use_count == 0

    def test_split_nonexistent_whisker_rejected(self):
        tree = WhiskerTree()
        foreign = Whisker(domain=MemoryRange.whole_space())
        with pytest.raises(ValueError):
            tree.split_whisker(foreign)

    def test_describe_lists_every_rule(self):
        tree = WhiskerTree(name="example")
        tree.split_whisker(tree.whiskers()[0])
        text = tree.describe()
        assert "example" in text
        assert text.count("m=") == len(tree)

    @given(points=st.lists(memories, min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_lookup_total_function_after_repeated_splits(self, points):
        tree = WhiskerTree()
        # Split a few times at data-driven points.
        for split_round in range(3):
            whisker = tree.whiskers()[split_round % len(tree.whiskers())]
            for point in points[:5]:
                whisker.use(point)
            tree.split_whisker(whisker)
        for point in points:
            whisker = tree.find(point)
            assert whisker.domain.contains(point.clamped())

    @given(points=st.lists(memories, min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_leaves_partition_memory_space(self, points):
        tree = WhiskerTree()
        tree.split_whisker(tree.whiskers()[0])
        tree.split_whisker(tree.whiskers()[3])
        for point in points:
            containing = [w for w in tree.whiskers() if w.domain.contains(point.clamped())]
            assert len(containing) == 1


#: The first split cuts ack_ewma one ulp below MAX_MEMORY; the second lands
#: on that one-ulp-wide region, leaves ack_ewma whole and makes 4 children.
ONE_ULP_ACK_SPLITS = [Memory(16383.999999999998, 1.0, 1.0), Memory(MAX_MEMORY, 1.0, 1.0)]


def grow(split_seeds):
    """A tree split at data-driven (median-trigger) points, one per seed."""
    tree = WhiskerTree()
    for seed_point in split_seeds:
        whisker = tree.find(seed_point)
        whisker.use(seed_point)
        tree.split_whisker(whisker)
    return tree


def inner_nodes(node):
    if node.whisker is None:
        yield node
        for child in node.children:
            yield from inner_nodes(child)


class TestOctantLookup:
    """The grid-indexed descent of split trees must agree with a region scan."""

    @given(
        points=st.lists(memories, min_size=1, max_size=40),
        split_seeds=st.one_of(
            st.lists(memories, min_size=3, max_size=8), st.just(ONE_ULP_ACK_SPLITS)
        ),
    )
    # The third split lands on a region one ulp wide in rtt_ratio, whose
    # "center" is MAX_MEMORY itself: that dimension must not be split.
    @example(
        points=[Memory(0.0, 0.0, MAX_MEMORY), Memory(0.0, 0.0, 16383.999999999998)],
        split_seeds=[
            Memory(0.0, 0.0, 0.0),
            Memory(0.0, 0.0, 16383.999999999998),
            Memory(0.0, 0.0, 16384.0),
        ],
    )
    @example(
        points=[Memory(MAX_MEMORY, 0.5, 2.0), Memory(16383.999999999998, 3.0, 0.5)],
        split_seeds=ONE_ULP_ACK_SPLITS,
    )
    @settings(max_examples=50, deadline=None)
    def test_grid_index_matches_region_scan(self, points, split_seeds):
        tree = grow(split_seeds)
        for node in inner_nodes(tree._root):
            cells = node.index[-1]
            assert sorted(map(id, cells)) == sorted(map(id, node.children))
        # Each point again on every split plane: thin regions get probed too.
        probes = list(points)
        for seed_point in split_seeds:
            for point in points[:5]:
                for dim in range(3):
                    values = list(point.as_tuple())
                    values[dim] = seed_point.as_tuple()[dim]
                    probes.append(Memory(*values))
        for point in probes:
            clamped = point.clamped()
            by_descent = tree.find(point)
            by_scan = [w for w in tree.whiskers() if w.domain.contains(clamped)]
            assert len(by_scan) == 1
            assert by_descent is by_scan[0]

    def test_split_nodes_store_their_split_point(self):
        tree = WhiskerTree()
        [whisker] = tree.whiskers()
        whisker.use(Memory(100.0, 200.0, 3.0))
        tree.split_whisker(whisker)
        root = tree._root
        assert root.index[:3] == ((100.0,), (200.0,), (3.0,))
        assert root.children[7].domain.lower.as_tuple() == (100.0, 200.0, 3.0)
        assert root.children[0].domain.upper.as_tuple() == (100.0, 200.0, 3.0)

    def test_version_bumped_by_a_split(self):
        tree = WhiskerTree()
        initial = tree.version
        tree.split_whisker(tree.whiskers()[0])
        assert tree.version > initial

    def test_grid_trees_use_bisection_not_the_scan(self):
        # The synthesized pretrained tables attach a flat (non-octant) grid of
        # cells under the root; lookups resolve them by bisecting the
        # (ack_ewma, rtt_ratio) bin edges.
        from repro.core.serialization import pretrained_remycc

        tree = pretrained_remycc("delta1")
        assert [len(cuts) for cuts in tree._root.index[:3]] == [13, 0, 8]
        for point in (
            Memory(0, 0, 0),
            Memory(1.0, 1.0, 1.2),
            Memory(MAX_MEMORY, MAX_MEMORY, MAX_MEMORY),
        ):
            whisker = tree.find(point)
            assert whisker.domain.contains(point.clamped())

    def test_serialization_round_trip_preserves_fast_descent(self):
        from repro.core.serialization import whisker_tree_from_dict, whisker_tree_to_dict

        tree = WhiskerTree()
        [whisker] = tree.whiskers()
        whisker.use(Memory(7.0, 9.0, 1.5))
        tree.split_whisker(whisker)
        tree.split_whisker(tree.whiskers()[2])
        reloaded = whisker_tree_from_dict(whisker_tree_to_dict(tree))
        assert reloaded._root.index[:3] == tree._root.index[:3]
        for point in (Memory(0, 0, 0), Memory(7.0, 9.0, 1.5), Memory(8, 10, 2)):
            assert reloaded.find(point).domain.as_tuple() == tree.find(
                point
            ).domain.as_tuple()


class TestGridBisection:
    """Bisection over pretrained grid roots must match the containment scan."""

    def _reference_scan(self, tree, point):
        clamped = point.clamped()
        for whisker in tree.whiskers():
            if whisker.domain.contains(clamped):
                return whisker
        raise AssertionError(f"no whisker contains {point}")

    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=-5.0, max_value=MAX_MEMORY * 1.01, allow_nan=False),
                st.floats(min_value=-5.0, max_value=MAX_MEMORY * 1.01, allow_nan=False),
                st.floats(min_value=-5.0, max_value=MAX_MEMORY * 1.01, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_bisection_matches_linear_scan(self, points):
        from repro.core.serialization import pretrained_remycc

        tree = pretrained_remycc("delta10")
        for point in points:
            memory = Memory(*point)
            assert tree.find(memory) is self._reference_scan(tree, memory)

    def test_bisection_agrees_on_every_bin_edge(self):
        # Bin edges are the boundary-semantics trap (lower inclusive, upper
        # exclusive except at MAX_MEMORY): probe each edge exactly, and a
        # nudge either side.
        from repro.core.serialization import pretrained_remycc

        tree = pretrained_remycc("delta1")
        ack_edges, _, ratio_edges = tree._root.index[:3]
        probes = {(0.0, 0.0), (MAX_MEMORY, MAX_MEMORY)}
        for edge in ack_edges:
            probes.update(
                {(edge, 1.0), (edge * (1 + 1e-9), 1.0), (edge * (1 - 1e-9), 1.0)}
            )
        for edge in ratio_edges:
            probes.update(
                {(1.0, edge), (1.0, edge * (1 + 1e-9)), (1.0, edge * (1 - 1e-9))}
            )
        for ack, ratio in probes:
            memory = Memory(ack, 3.0, ratio)
            assert tree.find(memory) is self._reference_scan(tree, memory)

    def test_octant_splits_inside_a_grid_keep_both_descents(self):
        # Splitting a grid cell turns that leaf into a 2 x 2 x 2 node; the
        # root's 14 x 1 x 9 grid and the split below must compose.
        from repro.core.serialization import pretrained_remycc

        tree = pretrained_remycc("delta1")
        point = Memory(1.0, 1.0, 1.2)
        whisker = tree.find(point)
        whisker.use(point)
        tree.split_whisker(whisker)
        assert [len(cuts) for cuts in tree._root.index[:3]] == [13, 0, 8]
        assert tree.find(point) is self._reference_scan(tree, point)

    def test_serialization_round_trip_preserves_grid_index(self):
        from repro.core.serialization import pretrained_remycc
        from repro.core.serialization import whisker_tree_from_dict, whisker_tree_to_dict

        tree = pretrained_remycc("delta0.1")
        reloaded = whisker_tree_from_dict(whisker_tree_to_dict(tree))
        assert reloaded._root.index[:3] == tree._root.index[:3]
        for point in (Memory(0, 0, 0), Memory(2.0, 1.0, 1.3), Memory(600, 5, 8)):
            assert (
                reloaded.find(point).domain.as_tuple()
                == tree.find(point).domain.as_tuple()
            )
