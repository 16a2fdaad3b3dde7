"""The lint rules: one class per repository invariant.

=========  ==================================================================
Rule       Invariant
=========  ==================================================================
RND001     No ambient entropy or wall-clock reads: all randomness flows
           through a caller-supplied ``random.Random`` (the §4.3 same-seed
           contract behind the golden fingerprints).
ORD001     No iteration over ``set``/``frozenset`` contents in
           ``repro/netsim`` hot paths: set order is not part of the
           determinism contract (membership tests are fine; wrap in
           ``sorted()`` when iteration is genuinely needed).
SLT001     Classes defined in ``repro/netsim`` and instantiated on the
           per-event path must declare ``__slots__`` (or be a
           ``dataclass(slots=True)`` / ``NamedTuple``).
FLT001     No float accumulation via ``sum()`` over an unordered container:
           float addition is not associative, so a set-ordered sum is not
           reproducible.
=========  ==================================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from tools.lint import LintRule, ModuleInfo, Violation

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _is_netsim(module: ModuleInfo) -> bool:
    """Whether the file belongs to the simulator hot-path package.

    Matched on path parts so both ``src/repro/netsim/...`` and the rule
    fixture tree (``tools/lint/fixtures/netsim/...``) qualify.
    """
    return "netsim" in module.path.parts


_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}
#: Annotations that positively identify an *ordered* container; used as
#: negative evidence when the same name is set-typed elsewhere in the module.
_ORDERED_ANNOTATIONS = {
    "list",
    "tuple",
    "dict",
    "deque",
    "List",
    "Tuple",
    "Dict",
    "Deque",
    "Sequence",
    "MutableSequence",
    "OrderedDict",
}
#: Constructor calls that positively build an ordered container.
_ORDERED_CONSTRUCTORS = {"list", "tuple", "dict", "sorted", "deque", "OrderedDict"}


class _SetTypeIndex:
    """Best-effort, module-local inference of which names hold sets.

    A name (local variable, parameter or ``self.<attr>``) is considered
    set-typed when it is annotated as a set or assigned a set literal /
    comprehension / ``set()`` / ``frozenset()`` call anywhere in the module.
    Names with *conflicting* evidence — set-typed in one function, clearly
    ordered (list/tuple annotation, ``sorted()`` result, …) in another —
    are dropped: the index is module-scoped, not flow-sensitive, so a
    conflict means two unrelated same-named locals, and flagging either
    would be a coin toss.  This is deliberately syntactic — no type
    checker — which is exactly enough to catch the pattern the determinism
    contract bans: code that *builds* a set and then walks it.
    """

    def __init__(self, tree: ast.Module):
        self._set_typed: set[str] = set()
        self._ordered: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                self._classify_annotation(node.target, node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args
                for arg in (
                    *arguments.posonlyargs,
                    *arguments.args,
                    *arguments.kwonlyargs,
                ):
                    if arg.annotation is not None:
                        self._classify_annotation(
                            ast.Name(id=arg.arg), arg.annotation
                        )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._classify_value(target, node.value)
            elif isinstance(node, ast.AugAssign):
                self._classify_value(node.target, node.value)
        self.names = self._set_typed - self._ordered

    @staticmethod
    def _annotation_name(annotation: ast.expr) -> str:
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        if isinstance(annotation, ast.Attribute):
            return annotation.attr
        if isinstance(annotation, ast.Name):
            return annotation.id
        return ""

    def _classify_annotation(self, target: ast.expr, annotation: ast.expr) -> None:
        name = self._annotation_name(annotation)
        if name in _SET_ANNOTATIONS:
            self._record(target, self._set_typed)
        elif name in _ORDERED_ANNOTATIONS:
            self._record(target, self._ordered)

    def _classify_value(self, target: ast.expr, value: ast.expr) -> None:
        if self.is_set_expression(value):
            self._record(target, self._set_typed)
        elif isinstance(value, (ast.List, ast.Tuple, ast.Dict, ast.ListComp, ast.DictComp)):
            self._record(target, self._ordered)
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _ORDERED_CONSTRUCTORS
        ):
            self._record(target, self._ordered)

    @staticmethod
    def _key(target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return f"self.{target.attr}"
        return None

    def _record(self, target: ast.expr, bucket: set[str]) -> None:
        key = self._key(target)
        if key is not None:
            bucket.add(key)

    def is_set_expression(self, node: ast.expr) -> bool:
        """Whether ``node`` syntactically evaluates to a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _SET_CONSTRUCTORS:
                return True
        key = self._key(node)
        return (
            key is not None
            and key in self._set_typed
            and key not in self._ordered
        )


def _attribute_call_name(node: ast.Call) -> Optional[tuple[str, str]]:
    """``module.attr(...)`` -> ``("module", "attr")``, else ``None``."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id, func.attr
    return None


# ---------------------------------------------------------------------------
# RND001: no ambient entropy / wall-clock reads
# ---------------------------------------------------------------------------

#: ``module -> banned attribute set``; ``None`` bans every attribute.
_BANNED_CALLS: dict[str, Optional[frozenset[str]]] = {
    # The module-level functions share one hidden global Random whose state
    # any import may perturb; only explicit random.Random instances keep the
    # same-seed contract.  SystemRandom is OS entropy by definition.
    "random": None,
    "time": frozenset({"time", "time_ns"}),
    "os": frozenset({"urandom", "getrandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
    "secrets": None,
}

#: Attributes of the banned modules that are deterministic constructors.
_ALLOWED_ATTRS: dict[str, frozenset[str]] = {
    "random": frozenset({"Random"}),
}


class NondeterministicCallRule(LintRule):
    """RND001: calls into ambient entropy or the wall clock."""

    rule_id = "RND001"
    description = (
        "no module-level random.*, time.time()/time_ns(), os.urandom, uuid1/4 "
        "or secrets.* — randomness must flow through a caller-supplied "
        "random.Random"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                named = _attribute_call_name(node)
                if named is None:
                    continue
                owner, attr = named
                if owner not in _BANNED_CALLS:
                    continue
                if attr in _ALLOWED_ATTRS.get(owner, frozenset()):
                    continue
                banned = _BANNED_CALLS[owner]
                if banned is None or attr in banned:
                    yield self.violation(
                        module,
                        node,
                        f"nondeterministic call {owner}.{attr}(); thread a "
                        "random.Random (or the scheduler clock) through instead",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module in _BANNED_CALLS:
                banned = _BANNED_CALLS[node.module]
                allowed = _ALLOWED_ATTRS.get(node.module, frozenset())
                for alias in node.names:
                    if alias.name in allowed:
                        continue
                    if banned is None or alias.name in banned:
                        yield self.violation(
                            module,
                            node,
                            f"importing {alias.name} from {node.module} pulls "
                            "in a nondeterministic entry point; import the "
                            "module and use an explicit random.Random",
                        )


# ---------------------------------------------------------------------------
# ORD001: no iteration over unordered containers in netsim
# ---------------------------------------------------------------------------


class UnorderedIterationRule(LintRule):
    """ORD001: walking a set's contents inside the simulator hot paths."""

    rule_id = "ORD001"
    description = (
        "no iteration over set/frozenset contents in repro/netsim — set order "
        "is nondeterministic across processes; use sorted() or an ordered "
        "container"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return _is_netsim(module)

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        index = _SetTypeIndex(module.tree)
        for node in ast.walk(module.tree):
            iterables: list[ast.expr] = []
            if isinstance(node, ast.For):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                if index.is_set_expression(iterable):
                    yield self.violation(
                        module,
                        iterable,
                        f"iteration over set-typed {ast.unparse(iterable)!r}: "
                        "set order is not deterministic; iterate a sorted() "
                        "copy or an ordered container",
                    )


# ---------------------------------------------------------------------------
# SLT001: __slots__ on per-event-path classes
# ---------------------------------------------------------------------------

#: Method-name prefixes considered part of the per-event path.  The set is
#: a heuristic anchored on the simulator's naming conventions: packet and
#: acknowledgment handlers (``on_*``), queue/link operations, scheduler
#: dispatch, and the per-event closures the sender, receiver and links build.
#: Setup-time code (``__init__``, ``attach_flow``, ``build_*``) deliberately
#: stays out.  Every prefix starts at least one ``def`` under
#: ``repro/netsim`` (``tests/test_lint.py`` checks), so none outlives the code
#: it matched.
_HOT_METHOD_PREFIXES = (
    "on_",
    "enqueue",
    "dequeue",
    "receive",
    "deliver",
    "release",
    "run_until",
    "post",
    "_lossy",
    "_mark_or_drop",
    "_pop",
    "_opportunity",
    "_rto",
    "_fast",
    "start_transmission",
    "finish_transmission",
    "ack_and_send",
    "_should_drop",
)


def _class_is_exempt(node: ast.ClassDef) -> bool:
    """Slots are declared, inherited from a value-type base, or pointless."""
    for stmt in node.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call) and isinstance(decorator.func, ast.Name):
            if decorator.func.id == "dataclass" and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in decorator.keywords
            ):
                return True
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if name in {"NamedTuple", "Enum", "IntEnum", "Protocol"}:
            return True
        if name.endswith(("Error", "Exception", "Warning")):
            return True
    return False


class MissingSlotsRule(LintRule):
    """SLT001: a slot-less netsim class constructed per event."""

    rule_id = "SLT001"
    description = (
        "classes instantiated on the per-event path in repro/netsim must "
        "declare __slots__ (or be dataclass(slots=True) / NamedTuple)"
    )

    def __init__(self) -> None:
        #: class name -> needs-slots flag, across every linted netsim module.
        self._needs_slots: dict[str, bool] = {}

    def applies_to(self, module: ModuleInfo) -> bool:
        return _is_netsim(module)

    def prepare(self, modules: Sequence[ModuleInfo]) -> None:
        self._needs_slots = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    self._needs_slots[node.name] = not _class_is_exempt(node)

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not func.name.startswith(_HOT_METHOD_PREFIXES):
                continue
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                    continue
                if self._needs_slots.get(node.func.id):
                    yield self.violation(
                        module,
                        node,
                        f"{node.func.id} is instantiated in per-event method "
                        f"{func.name}() but declares no __slots__",
                    )


# ---------------------------------------------------------------------------
# FLT001: no float sum() over unordered containers
# ---------------------------------------------------------------------------


class FloatSumOverSetRule(LintRule):
    """FLT001: ``sum()`` whose addition order depends on set ordering."""

    rule_id = "FLT001"
    description = (
        "no sum() over a set/frozenset (directly or via a comprehension): "
        "float addition is order-sensitive, so the result is not reproducible"
    )

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        index = _SetTypeIndex(module.tree)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"sum", "fsum"}
                and node.args
            ):
                continue
            iterable = node.args[0]
            unordered = index.is_set_expression(iterable)
            if not unordered and isinstance(
                iterable, (ast.GeneratorExp, ast.ListComp, ast.SetComp)
            ):
                unordered = any(
                    index.is_set_expression(gen.iter) for gen in iterable.generators
                )
            if unordered:
                yield self.violation(
                    module,
                    node,
                    "sum() over a set-ordered iterable: float accumulation "
                    "order would vary; sum a sorted() copy instead",
                )


def all_rules() -> list[LintRule]:
    """Fresh instances of every rule, in rule-id order."""
    return [
        FloatSumOverSetRule(),
        UnorderedIterationRule(),
        NondeterministicCallRule(),
        MissingSlotsRule(),
    ]
