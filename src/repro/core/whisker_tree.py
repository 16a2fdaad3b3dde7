"""The whisker tree: an octree of rules constituting one RemyCC (§4.3).

The tree starts as a single rule covering the whole memory space with the
default action.  The optimizer repeatedly improves the action of the
most-used rule and, every K epochs, replaces the most-used rule with eight
children splitting its memory region at the median triggering value.  Lookup
walks the octree from the root; regions more likely to occur therefore end up
with finer-grained actions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Optional

from repro.core.action import Action
from repro.core.memory import MAX_MEMORY, Memory, MemoryRange
from repro.core.whisker import Whisker, WhiskerUsage

#: An inner node's index: the interior cuts along ack_ewma, send_ewma and
#: rtt_ratio, the bin strides of the first two, and the children by bin.
GridIndex = tuple[
    tuple[float, ...], tuple[float, ...], tuple[float, ...], int, int, tuple["_Node", ...]
]


class _Node:
    """Internal tree node: either a leaf holding a whisker or a list of children.

    An inner node's children tile its domain as a product grid, and ``index``
    describes it: per memory dimension the sorted interior cuts, and the
    children in row-major bin order (ack_ewma outermost, rtt_ratio innermost).
    Lookup picks a child with one ``bisect_right`` per dimension.  An octant
    split is a 2×2×2 grid, a split that leaves a one-ulp dimension whole a
    1×2×2 or similar, and each named table's root a 14×1×9 grid.
    ``children`` keeps split (or file) order, which iteration, usage
    summaries and serialization read.
    """

    __slots__ = ("domain", "whisker", "children", "index")

    def __init__(self, domain: MemoryRange, whisker: Optional[Whisker] = None):
        self.domain = domain
        self.whisker = whisker
        self.children: list["_Node"] = []
        self.index: Optional[GridIndex] = None

    @property
    def is_leaf(self) -> bool:
        return self.whisker is not None


def index_node(node: _Node) -> None:
    """Index ``node``'s children as a product grid over its domain.

    The cuts along a dimension are the children's lower bounds strictly
    inside the node's extent, so ``bisect_right(cuts, value)`` is the bin
    with :meth:`MemoryRange.contains_point`'s boundary semantics (lower
    bounds inclusive, upper bounds exclusive except at ``MAX_MEMORY``).
    Raises ``ValueError`` naming the node unless each grid cell is exactly
    one child's domain.
    """
    low = node.domain.lower.as_tuple()
    high = node.domain.upper.as_tuple()
    bounds = [child.domain.as_tuple() for child in node.children]
    edges = []
    for dim in range(3):
        cuts = sorted({lo[dim] for lo, _ in bounds if low[dim] < lo[dim] < high[dim]})
        edges.append([low[dim], *cuts, high[dim]])
    n1 = len(edges[1]) - 1
    n2 = len(edges[2]) - 1
    cells: list[Optional[_Node]] = [None] * ((len(edges[0]) - 1) * n1 * n2)
    for child, (lo, hi) in zip(node.children, bounds):
        bins = [bisect_left(edges[dim], lo[dim]) for dim in range(3)]
        if all(edges[dim][bins[dim]:bins[dim] + 2] == [lo[dim], hi[dim]] for dim in range(3)):
            cells[(bins[0] * n1 + bins[1]) * n2 + bins[2]] = child
    # As many children as cells, and every cell filled: one child per cell.
    if len(bounds) != len(cells) or None in cells:
        raise ValueError(
            f"node {node.domain.as_tuple()}: its {len(bounds)} children do not tile it "
            "as a product grid"
        )
    node.index = (
        tuple(edges[0][1:-1]), tuple(edges[1][1:-1]), tuple(edges[2][1:-1]),
        n1 * n2, n2, tuple(cells),
    )


class WhiskerTree:
    """A complete RemyCC: the mapping from memory values to actions."""

    def __init__(self, default_action: Optional[Action] = None, name: str = "remycc"):
        domain = MemoryRange.whole_space()
        action = default_action if default_action is not None else Action.default()
        self._root = _Node(domain, Whisker(domain=domain, action=action))
        self.name = name
        #: Structure revision counter.  Incremented by :meth:`split_whisker`
        #: so leaf caches held outside the tree (see ``RemyCCProtocol``) can
        #: be invalidated; an action is changed in place on its whisker.
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
        """Leaf lookup for an already-clamped scalar memory point.

        Each level bisects the node's cuts once per dimension and takes the
        child in that grid cell.
        """
        node = self._root
        while (index := node.index) is not None:
            cuts0, cuts1, cuts2, stride0, stride1, cells = index
            node = cells[
                bisect_right(cuts0, m0) * stride0
                + bisect_right(cuts1, m1) * stride1
                + bisect_right(cuts2, m2)
            ]
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
