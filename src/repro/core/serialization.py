"""Persistence for RemyCC rule tables.

Whisker trees are serialized to plain JSON so they can be shipped with the
package, inspected by hand (each rule is human-readable) and reloaded into
the runtime.  The format preserves the octree structure so a reloaded tree
performs lookups identically to the original.

The named tables every experiment runs (``delta1``, ``1x``, ``datacenter``,
...) are such files, one per name under ``results/remycc/``.  Each also
records where the table came from in a top-level ``origin`` key, and a
designed one its design problem and search in a ``design`` block, which
makes the file the design's checkpoint
(:meth:`repro.core.optimizer.RemyOptimizer.resume_from_checkpoint`);
loading ignores both.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Union

from repro.core.action import Action
from repro.core.memory import Memory, MemoryRange
from repro.core.whisker import Whisker
from repro.core.whisker_tree import WhiskerTree, _Node, index_node

FORMAT_VERSION = 1


def _memory_range_to_dict(domain: MemoryRange) -> dict[str, Any]:
    return {"lower": list(domain.lower.as_tuple()), "upper": list(domain.upper.as_tuple())}


def _memory_range_from_dict(data: dict[str, Any]) -> MemoryRange:
    return MemoryRange(Memory(*data["lower"]), Memory(*data["upper"]))


def _action_to_dict(action: Action) -> dict[str, float]:
    return {
        "window_multiple": action.window_multiple,
        "window_increment": action.window_increment,
        "intersend_ms": action.intersend_ms,
    }


def _action_from_dict(data: dict[str, float]) -> Action:
    return Action(
        window_multiple=float(data["window_multiple"]),
        window_increment=float(data["window_increment"]),
        intersend_ms=float(data["intersend_ms"]),
    )


def _node_to_dict(node: _Node) -> dict[str, Any]:
    if node.is_leaf:
        assert node.whisker is not None
        return {
            "domain": _memory_range_to_dict(node.domain),
            "whisker": {
                "action": _action_to_dict(node.whisker.action),
                "epoch": node.whisker.epoch,
            },
        }
    return {
        "domain": _memory_range_to_dict(node.domain),
        "children": [_node_to_dict(child) for child in node.children],
    }


def _node_from_dict(data: dict[str, Any]) -> _Node:
    domain = _memory_range_from_dict(data["domain"])
    if "whisker" in data:
        whisker = Whisker(
            domain=domain,
            action=_action_from_dict(data["whisker"]["action"]),
            epoch=int(data["whisker"].get("epoch", 0)),
        )
        return _Node(domain, whisker)
    node = _Node(domain)
    node.children = [_node_from_dict(child) for child in data["children"]]
    # Lookup descends by the node's product-grid index; children that do
    # not form one raise a ValueError naming the node.
    index_node(node)
    return node


def whisker_tree_to_dict(tree: WhiskerTree) -> dict[str, Any]:
    """Serialize a tree (structure, actions and epochs) to a JSON-able dict."""
    return {
        "format_version": FORMAT_VERSION,
        "name": tree.name,
        "root": _node_to_dict(tree._root),
    }


def whisker_tree_from_dict(data: dict[str, Any]) -> WhiskerTree:
    """Reconstruct a tree previously produced by :func:`whisker_tree_to_dict`."""
    version = data.get("format_version", 0)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported RemyCC format version {version}")
    tree = WhiskerTree(name=data.get("name", "remycc"))
    tree._root = _node_from_dict(data["root"])
    return tree


def save_json_atomic(data: Any, path: Union[str, Path]) -> Path:
    """Write ``data`` as JSON to ``path`` atomically and return the path.

    The document is written to a sibling temp file and renamed into place
    (``os.replace`` is atomic on POSIX), so a crash mid-write — the exact
    failure checkpoints exist to survive — can never leave a truncated file
    where the previous good checkpoint used to be.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True))
    os.replace(tmp, path)
    return path


def save_remycc(tree: WhiskerTree, path: Union[str, Path]) -> Path:
    """Write a rule table to ``path`` as JSON and return the path."""
    return save_json_atomic(whisker_tree_to_dict(tree), path)


def load_remycc(path: Union[str, Path]) -> WhiskerTree:
    """Load a rule table previously written by :func:`save_remycc`."""
    data = json.loads(Path(path).read_text())
    return whisker_tree_from_dict(data)


#: One ``<name>.json`` per named RemyCC, at the repository root.
REMYCC_DIR = Path(__file__).resolve().parents[3] / "results" / "remycc"


def pretrained_tree_names() -> list[str]:
    """Names accepted by :func:`pretrained_remycc`."""
    return sorted(path.stem for path in REMYCC_DIR.glob("*.json"))


def pretrained_remycc(name: str) -> WhiskerTree:
    """Load the named rule table from ``results/remycc/`` (a fresh tree per call)."""
    if name not in pretrained_tree_names():
        raise ValueError(
            f"unknown pretrained RemyCC {name!r}; available: {pretrained_tree_names()}"
        )
    return load_remycc(REMYCC_DIR / f"{name}.json")
