"""The whisker tree: an octree of rules constituting one RemyCC (§4.3).

The tree starts as a single rule covering the whole memory space with the
default action.  The optimizer repeatedly improves the action of the
most-used rule and, every K epochs, replaces the most-used rule with eight
children splitting its memory region at the median triggering value.  Lookup
walks the octree from the root; regions more likely to occur therefore end up
with finer-grained actions.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterator, Optional

from repro.core.action import Action
from repro.core.memory import MAX_MEMORY, Memory, MemoryRange
from repro.core.whisker import Whisker, WhiskerUsage


class _Node:
    """Internal tree node: either a leaf holding a whisker or a list of children.

    A node produced by an octant split additionally stores the split point as
    ``split_point = (s0, s1, s2)``: lookup then computes the child index with
    three float comparisons instead of scanning children.  Nodes whose
    children form a row-major 2-D grid over (ack_ewma, rtt_ratio) — the shape
    the synthesized pretrained tables attach under the root — store the bin
    edges in ``grid_index`` and are descended by bisection.  Anything else is
    scanned linearly.
    """

    __slots__ = ("domain", "whisker", "children", "split_point", "grid_index")

    def __init__(self, domain: MemoryRange, whisker: Optional[Whisker] = None):
        self.domain = domain
        self.whisker = whisker
        self.children: list["_Node"] = []
        self.split_point: Optional[tuple[float, float, float]] = None
        self.grid_index: Optional[tuple[tuple[float, ...], tuple[float, ...], int]] = None

    @property
    def is_leaf(self) -> bool:
        return self.whisker is not None


def detect_octant_split(node: _Node) -> Optional[tuple[float, float, float]]:
    """Return the split point if ``node``'s children form an octant partition.

    Children must be in :meth:`MemoryRange.split` order: child ``code`` takes
    the upper half along dimension ``d`` iff bit ``d`` of ``code`` is set, so
    ``children[0].domain.upper == children[7].domain.lower == split point``.
    Any other arrangement (or child count) returns ``None``, which makes the
    lookup fall back to the containment scan.
    """
    children = node.children
    if len(children) != 8:
        return None
    split = children[7].domain.lower.as_tuple()
    low = node.domain.lower.as_tuple()
    high = node.domain.upper.as_tuple()
    for code, child in enumerate(children):
        child_low = child.domain.lower.as_tuple()
        child_high = child.domain.upper.as_tuple()
        for dim in range(3):
            upper_half = code & (1 << dim)
            if child_low[dim] != (split[dim] if upper_half else low[dim]):
                return None
            if child_high[dim] != (high[dim] if upper_half else split[dim]):
                return None
    return split


def detect_grid_partition(
    node: _Node,
) -> Optional[tuple[tuple[float, ...], tuple[float, ...], int]]:
    """Return bisection metadata if ``node``'s children tile a 2-D grid.

    The synthesized pretrained tables (see :mod:`repro.core.pretrained`)
    attach a flat row-major grid of cells under the root: children iterate
    ack_ewma bins in the outer loop and rtt_ratio bins in the inner loop,
    and every cell spans the node's full send_ewma extent.  For such nodes
    lookup can bisect the two sorted edge lists instead of scanning ~112
    cells with a containment test each.

    Returns ``(interior_ack_edges, interior_ratio_edges, n_ratio_bins)`` —
    interior edges only, so ``bisect_right(edges, value)`` yields the bin
    index directly with the same boundary semantics as
    :meth:`MemoryRange.contains_point` (lower edges inclusive, upper edges
    exclusive except at ``MAX_MEMORY``) — or ``None`` for any other shape.
    """
    children = node.children
    n = len(children)
    if n < 4:
        return None
    lower = node.domain.lower
    upper = node.domain.upper
    # Infer the rtt_ratio edges from the leading run of children that share
    # the first ack_ewma bin.
    first = children[0].domain
    ack_low = first.lower.ack_ewma
    ack_high = first.upper.ack_ewma
    ratio_edges = [first.lower.rtt_ratio]
    n_ratio = 0
    for child in children:
        domain = child.domain
        if domain.lower.ack_ewma != ack_low:
            break
        if domain.upper.ack_ewma != ack_high:
            return None
        if domain.lower.rtt_ratio != ratio_edges[-1]:
            return None
        ratio_edges.append(domain.upper.rtt_ratio)
        n_ratio += 1
    if n_ratio < 2 or n % n_ratio != 0:
        return None
    n_ack = n // n_ratio
    if n_ack < 2:
        return None
    if ratio_edges[0] != lower.rtt_ratio or ratio_edges[-1] != upper.rtt_ratio:
        return None
    # Verify every cell against the inferred grid, row by row.
    ack_edges = [lower.ack_ewma]
    for row in range(n_ack):
        row_low = children[row * n_ratio].domain.lower.ack_ewma
        row_high = children[row * n_ratio].domain.upper.ack_ewma
        if row_low != ack_edges[-1]:
            return None
        ack_edges.append(row_high)
        for col in range(n_ratio):
            domain = children[row * n_ratio + col].domain
            if (
                domain.lower.ack_ewma != row_low
                or domain.upper.ack_ewma != row_high
                or domain.lower.rtt_ratio != ratio_edges[col]
                or domain.upper.rtt_ratio != ratio_edges[col + 1]
                or domain.lower.send_ewma != lower.send_ewma
                or domain.upper.send_ewma != upper.send_ewma
            ):
                return None
    if ack_edges[-1] != upper.ack_ewma:
        return None
    return tuple(ack_edges[1:-1]), tuple(ratio_edges[1:-1]), n_ratio


def index_node(node: _Node) -> None:
    """(Re)derive the fast-descent metadata for a node's current children."""
    node.split_point = detect_octant_split(node)
    node.grid_index = None if node.split_point is not None else detect_grid_partition(node)


class WhiskerTree:
    """A complete RemyCC: the mapping from memory values to actions."""

    def __init__(self, default_action: Optional[Action] = None, name: str = "remycc"):
        domain = MemoryRange.whole_space()
        action = default_action if default_action is not None else Action.default()
        self._root = _Node(domain, Whisker(domain=domain, action=action))
        self.name = name
        #: Structure/action revision counter.  Incremented by
        #: :meth:`split_whisker` and :meth:`replace_action` so leaf caches
        #: held outside the tree (see ``RemyCCProtocol``) can be invalidated.
        self.version = 0

    # ------------------------------------------------------------------ lookup
    def find(self, memory: Memory) -> Whisker:
        """Return the leaf whisker whose region contains ``memory``."""
        m0 = memory.ack_ewma
        m1 = memory.send_ewma
        m2 = memory.rtt_ratio
        # Clamp in place (scalar): the previous implementation allocated a
        # whole clamped Memory per lookup.
        if m0 < 0.0:
            m0 = 0.0
        elif m0 > MAX_MEMORY:
            m0 = MAX_MEMORY
        if m1 < 0.0:
            m1 = 0.0
        elif m1 > MAX_MEMORY:
            m1 = MAX_MEMORY
        if m2 < 0.0:
            m2 = 0.0
        elif m2 > MAX_MEMORY:
            m2 = MAX_MEMORY
        return self.find_point(m0, m1, m2)

    def find_point(self, m0: float, m1: float, m2: float) -> Whisker:
        """Leaf lookup for an already-clamped scalar memory point."""
        node = self._root
        while node.whisker is None:
            split = node.split_point
            if split is not None:
                # Octant descent: three float comparisons pick the child.
                node = node.children[
                    (m0 >= split[0])
                    | ((m1 >= split[1]) << 1)
                    | ((m2 >= split[2]) << 2)
                ]
                continue
            grid = node.grid_index
            if grid is not None:
                # Grid descent (pretrained tables): two bisections over the
                # (ack_ewma, rtt_ratio) bin edges pick the cell directly.
                ack_edges, ratio_edges, n_ratio = grid
                node = node.children[
                    bisect_right(ack_edges, m0) * n_ratio
                    + bisect_right(ratio_edges, m2)
                ]
                continue
            for child in node.children:
                if child.domain.contains_point(m0, m1, m2):
                    node = child
                    break
            else:  # pragma: no cover - regions tile the space, so unreachable
                raise RuntimeError(
                    f"no child contains memory ({m0}, {m1}, {m2})"
                )
        return node.whisker

    def use(self, memory: Memory) -> Action:
        """Record a lookup (incrementing use counts) and return the action."""
        return self.find(memory).use(memory)

    def action_for(self, memory: Memory) -> Action:
        """Return the action for ``memory`` without touching use counts."""
        return self.find(memory).action

    # ------------------------------------------------------------------ iteration
    def _leaves(self, node: Optional[_Node] = None) -> Iterator[_Node]:
        node = node if node is not None else self._root
        if node.is_leaf:
            yield node
        else:
            for child in node.children:
                yield from self._leaves(child)

    def whiskers(self) -> list[Whisker]:
        """All leaf rules, in deterministic (depth-first) order."""
        return [node.whisker for node in self._leaves() if node.whisker is not None]

    def __len__(self) -> int:
        return sum(1 for _ in self._leaves())

    # ------------------------------------------------------------------ optimizer
    def reset_statistics(self) -> None:
        for whisker in self.whiskers():
            whisker.reset_statistics()

    def usage(self) -> list[WhiskerUsage]:
        """Every rule's statistics, in :meth:`whiskers` order."""
        return [whisker.usage() for whisker in self.whiskers()]

    def set_epoch(self, epoch: int) -> None:
        """Mark every rule as belonging to ``epoch`` (§4.3 step 1)."""
        for whisker in self.whiskers():
            whisker.epoch = epoch

    def most_used(self, epoch: Optional[int] = None) -> Optional[Whisker]:
        """The most-used rule, optionally restricted to a given epoch.

        Returns ``None`` when no rule in the epoch was used at all.
        """
        best: Optional[Whisker] = None
        for whisker in self.whiskers():
            if epoch is not None and whisker.epoch != epoch:
                continue
            if whisker.use_count <= 0:
                continue
            if best is None or whisker.use_count > best.use_count:
                best = whisker
        return best

    def replace_action(self, whisker: Whisker, action: Action) -> None:
        """Install ``action`` on the leaf currently holding ``whisker``."""
        node = self._find_leaf_node(whisker)
        assert node.whisker is not None
        node.whisker.action = action
        self.version += 1

    def split_whisker(self, whisker: Whisker) -> list[Whisker]:
        """Replace ``whisker`` with eight children split at its median trigger."""
        node = self._find_leaf_node(whisker)
        children = whisker.split()
        node.whisker = None
        node.children = [_Node(child.domain, child) for child in children]
        index_node(node)
        self.version += 1
        return children

    def _find_leaf_node(self, whisker: Whisker) -> _Node:
        for node in self._leaves():
            if node.whisker is whisker:
                return node
        raise ValueError("whisker is not a leaf of this tree")

    # ------------------------------------------------------------------ misc
    def map_actions(self, transform: Callable[[Action], Action]) -> None:
        """Apply a transformation to every rule's action (used in tests/ablations)."""
        for whisker in self.whiskers():
            whisker.action = transform(whisker.action)

    def total_use_count(self) -> int:
        return sum(whisker.use_count for whisker in self.whiskers())

    def describe(self) -> str:
        """Multi-line summary of every rule (ordered by use count)."""
        lines = [f"RemyCC {self.name!r}: {len(self)} rules"]
        for whisker in sorted(self.whiskers(), key=lambda w: -w.use_count):
            lines.append("  " + whisker.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WhiskerTree(name={self.name!r}, rules={len(self)})"
