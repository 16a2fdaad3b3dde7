"""Round-trip tests for RemyCC serialization."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.action import Action
from repro.core.memory import MAX_MEMORY, Memory
from repro.core.serialization import (
    load_remycc,
    pretrained_remycc,
    save_remycc,
    whisker_tree_from_dict,
    whisker_tree_to_dict,
)
from repro.core.whisker_tree import WhiskerTree

coords = st.floats(min_value=0.0, max_value=MAX_MEMORY, allow_nan=False)
memories = st.tuples(coords, coords, coords).map(lambda t: Memory(*t))
ACTION = {"window_multiple": 1.0, "window_increment": 1.0, "intersend_ms": 1.0}


def test_round_trip_single_rule_tree():
    tree = WhiskerTree(default_action=Action(0.9, 2.0, 1.5), name="single")
    data = whisker_tree_to_dict(tree)
    restored = whisker_tree_from_dict(data)
    assert restored.name == "single"
    assert len(restored) == 1
    assert restored.whiskers()[0].action == Action(0.9, 2.0, 1.5)


def test_round_trip_split_tree():
    tree = WhiskerTree(name="split")
    whisker = tree.whiskers()[0]
    whisker.use(Memory(5, 5, 2.0))
    tree.split_whisker(whisker)
    tree.whiskers()[3].action = Action(0.5, -1.0, 4.0)
    restored = whisker_tree_from_dict(whisker_tree_to_dict(tree))
    assert len(restored) == len(tree)
    for original, copy in zip(tree.whiskers(), restored.whiskers()):
        assert original.action == copy.action
        assert original.domain.as_tuple() == copy.domain.as_tuple()


def test_round_trip_is_json_compatible():
    tree = pretrained_remycc("delta1")
    text = json.dumps(whisker_tree_to_dict(tree))
    restored = whisker_tree_from_dict(json.loads(text))
    assert len(restored) == len(tree)


def test_save_and_load_file(tmp_path):
    tree = pretrained_remycc("delta10")
    path = save_remycc(tree, tmp_path / "remy.json")
    restored = load_remycc(path)
    assert restored.name == tree.name
    assert len(restored) == len(tree)


def test_unsupported_version_rejected():
    tree = WhiskerTree()
    data = whisker_tree_to_dict(tree)
    data["format_version"] = 99
    with pytest.raises(ValueError):
        whisker_tree_from_dict(data)


def test_a_node_whose_children_are_not_a_product_grid_does_not_load():
    # Three rules that tile the space, but not as a grid: the lower ack_ewma
    # half is one rule while the upper half is cut along rtt_ratio.
    def rule(lower, upper):
        return {"domain": {"lower": lower, "upper": upper}, "whisker": {"action": ACTION}}

    top = MAX_MEMORY
    data = whisker_tree_to_dict(WhiskerTree())
    data["root"]["children"] = [
        rule([0.0, 0.0, 0.0], [5.0, top, top]),
        rule([5.0, 0.0, 0.0], [top, top, 2.0]),
        rule([5.0, 0.0, 2.0], [top, top, top]),
    ]
    del data["root"]["whisker"]
    root = "((0.0, 0.0, 0.0), (16384.0, 16384.0, 16384.0))"
    with pytest.raises(ValueError, match=re.escape(f"node {root}: its 3 children")):
        whisker_tree_from_dict(data)


@pytest.mark.parametrize("spelling", ["NaN", "Infinity", "-Infinity"])
def test_a_table_with_a_non_finite_action_does_not_load(tmp_path, spelling):
    # ``json.loads`` accepts these three words; a rule carrying one would
    # poison every congestion window it touches.
    path = save_remycc(WhiskerTree(default_action=Action(0.9, 2.0, 1.5)), tmp_path / "remy.json")
    text = path.read_text()
    assert text.count("2.0") == 1
    path.write_text(text.replace("2.0", spelling))
    with pytest.raises(ValueError, match="window_increment must be finite"):
        load_remycc(path)


@given(points=st.lists(memories, min_size=1, max_size=25))
@settings(max_examples=30, deadline=None)
def test_restored_tree_gives_identical_lookups(points):
    tree = pretrained_remycc("delta0.1")
    restored = whisker_tree_from_dict(whisker_tree_to_dict(tree))
    for point in points:
        assert tree.action_for(point) == restored.action_for(point)
