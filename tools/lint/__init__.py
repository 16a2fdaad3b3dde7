"""Custom AST lint pass encoding this repository's correctness invariants.

The simulator's whole test strategy rests on a contract that ordinary
linters know nothing about: **determinism** — a run is a pure function of
its seed (the golden fingerprints in ``tests/golden/fingerprints.json`` pin
this bit-exactly), so no simulator code may consult ambient entropy or
iterate containers whose order is not deterministic — and on keeping the
per-event path cheap.

Each rule in :mod:`tools.lint.rules` mechanises one of those invariants.
Run the pass with::

    PYTHONPATH=src python -m tools.lint src/

Suppression: a trailing ``# noqa: RULE1[, RULE2]`` comment silences the
named rules on that line (bare ``# noqa`` silences all); every suppression
should say why.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

#: Sentinel for a bare ``# noqa`` (suppresses every rule on the line).
SUPPRESS_ALL = frozenset({"*"})

_NOQA_RE = re.compile(
    r"#\s*noqa(?!\w)(?:\s*:\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?"
)


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass
class ModuleInfo:
    """A parsed source file plus everything rules need to inspect it."""

    path: Path
    source: str
    tree: ast.Module
    #: line number -> rule ids suppressed there (:data:`SUPPRESS_ALL` for all).
    noqa: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def display_path(self) -> str:
        return self.path.as_posix()

    def suppressed(self, line: int, rule_id: str) -> bool:
        codes = self.noqa.get(line)
        if codes is None:
            return False
        return codes is SUPPRESS_ALL or rule_id in codes


class LintRule:
    """Base class for one invariant check.

    Subclasses set ``rule_id`` (stable, referenced by ``# noqa`` pragmas)
    and ``description`` and implement :meth:`check`.  Rules needing a view
    of the whole file set before per-module checking (e.g. a cross-module
    class registry) override :meth:`prepare`.
    """

    rule_id: str = ""
    description: str = ""

    def applies_to(self, module: ModuleInfo) -> bool:
        """Whether this rule runs on ``module`` (default: every file)."""
        return True

    def prepare(self, modules: Sequence[ModuleInfo]) -> None:
        """One-time pass over the whole file set before :meth:`check`."""

    def check(self, module: ModuleInfo) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            path=module.display_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )


def _parse_noqa(source: str) -> dict[int, frozenset[str]]:
    noqa: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            noqa[lineno] = SUPPRESS_ALL
        else:
            noqa[lineno] = frozenset(
                code.strip() for code in codes.split(",") if code.strip()
            )
    return noqa


def load_module(path: Path) -> ModuleInfo:
    """Parse one source file into a :class:`ModuleInfo`.

    Raises :class:`SyntaxError` for unparsable files — the lint pass treats
    those as hard errors rather than silently skipping them.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ModuleInfo(path=path, source=source, tree=tree, noqa=_parse_noqa(source))


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Fixture directories are excluded: they deliberately contain violations
    for the rule self-tests and must not fail a lint of the real tree.
    """
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(
                candidate
                for candidate in path.rglob("*.py")
                if "fixtures" not in candidate.parts
            )
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def run_rules(
    modules: Sequence[ModuleInfo], rules: Sequence[LintRule]
) -> list[Violation]:
    """Run every rule over every module; suppressions already applied."""
    for rule in rules:
        rule.prepare([m for m in modules if rule.applies_to(m)])
    violations: list[Violation] = []
    for module in modules:
        for rule in rules:
            if not rule.applies_to(module):
                continue
            for violation in rule.check(module):
                if not module.suppressed(violation.line, rule.rule_id):
                    violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations


def lint_paths(
    paths: Iterable[Path], rules: Optional[Sequence[LintRule]] = None
) -> list[Violation]:
    """Lint files/directories with the given rules (default: all rules)."""
    from tools.lint.rules import all_rules

    modules = [load_module(path) for path in iter_python_files(paths)]
    return run_rules(modules, list(rules) if rules is not None else all_rules())
