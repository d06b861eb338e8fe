"""Static-analysis framework: rules, diagnostics, inline suppression.

The paper's O(1)-query and reproducible-accuracy claims survive only as
long as the implementation keeps a handful of mechanical invariants:
hash-plane code stays vectorized (no per-item Python), randomness flows
from explicit seeds, hash planes keep their ``uint64`` dtype discipline,
and shared state stays under its declared lock. This package enforces
those invariants by walking the AST of every source file —
``repro analyze src/repro`` is the gating entry point.

Architecture
------------

- :class:`Rule` — one invariant with a stable id (``purity.loop``),
  a summary and a fix hint;
- :class:`Diagnostic` — one finding: ``path:line:col``, the rule id and
  a concrete message;
- :class:`Checker` — base class; subclasses implement
  :meth:`Checker.check_module`, one AST walk per file;
- suppression — inline ``# analysis: allow(purity.loop) -- reason``
  comments on (or directly above) the flagged line. There is no
  baseline: real findings get fixed, or carry an allow with its reason.
  Allow ids are themselves audited (``analysis.unknown-allow``).

Checkers register themselves via :func:`register_checker`; importing
:mod:`repro.analysis` loads the standard suite.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

__all__ = [
    "AnalysisResult",
    "Checker",
    "Diagnostic",
    "ModuleInfo",
    "Rule",
    "all_checkers",
    "all_rules",
    "analyze_paths",
    "dotted_name",
    "register_checker",
]

#: Inline suppression:  ``# analysis: allow(purity.loop) -- chunk loop``.
#: Several ids may be listed, comma-separated; a bare family name
#: (``purity``) allows every rule of that family.
_ALLOW_RE = re.compile(r"#\s*analysis:\s*allow\(([^)]*)\)")


@dataclass(frozen=True)
class Rule:
    """One enforced invariant, identified by a stable ``family.name`` id."""

    id: str
    summary: str
    hint: str


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where, which rule, and what exactly is wrong."""

    path: str  # repo-relative, POSIX separators
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""

    def format(self) -> str:
        """``path:line:col: rule: message`` (single line, grep-friendly)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class ModuleInfo:
    """One parsed source file: text, line table and AST."""

    __slots__ = ("path", "relpath", "source", "lines", "tree")

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))

    def line(self, lineno: int) -> str:
        """1-based source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def allowed_rules_at(self, lineno: int) -> set[str]:
        """Rule ids allowed by inline comments on or above ``lineno``.

        Checks the flagged line itself, then walks up through the
        contiguous block of comment-only (or blank) lines directly above
        it, so multi-line justifications count.
        """
        allowed: set[str] = set()

        def collect(line: str) -> None:
            match = _ALLOW_RE.search(line)
            if match:
                allowed.update(
                    part.strip() for part in match.group(1).split(",")
                )

        collect(self.line(lineno))
        candidate = lineno - 1
        while candidate >= 1:
            stripped = self.line(candidate).strip()
            if stripped and not stripped.startswith("#"):
                break
            collect(stripped)
            candidate -= 1
        allowed.discard("")
        return allowed


def dotted_name(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute/name chains; empty string otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# ----------------------------------------------------------------------
# Checker base + registry
# ----------------------------------------------------------------------
class Checker:
    """Base class: one named checker contributing one rule family."""

    #: Short family name, e.g. ``"purity"``.
    name: str = "base"
    #: The rules this checker can emit.
    rules: tuple[Rule, ...] = ()

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        """Per-file findings (default: none)."""
        return iter(())

    def rule(self, rule_id: str) -> Rule:
        """Look up one of this checker's declared rules by id."""
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise KeyError(f"{type(self).__name__} declares no rule {rule_id!r}")

    def diagnostic(
        self,
        module: ModuleInfo,
        node: ast.AST,
        rule_id: str,
        message: str,
    ) -> Diagnostic:
        """Build a Diagnostic anchored at ``node`` with the rule's hint."""
        return Diagnostic(
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule_id,
            message=message,
            hint=self.rule(rule_id).hint,
        )


_CHECKERS: dict[str, Callable[[], Checker]] = {}


def register_checker(factory: type[Checker]) -> type[Checker]:
    """Class decorator: add a checker to the default suite."""
    instance = factory()
    if not instance.name or instance.name == "base":
        raise ValueError(f"{factory.__name__} must set a checker name")
    _CHECKERS[instance.name] = factory
    return factory


def all_checkers() -> list[Checker]:
    """Instantiate every registered checker."""
    return [factory() for factory in _CHECKERS.values()]


def all_rules() -> list[Rule]:
    """Every rule of every registered checker, sorted by id."""
    rules = [rule for checker in all_checkers() for rule in checker.rules]
    return sorted(rules, key=lambda rule: rule.id)


@register_checker
class AllowAuditChecker(Checker):
    """Audit the suppression comments themselves.

    A typo in an allow comment's rule id silently suppresses nothing
    while *looking* like an audited deviation — the worst kind of
    drift. Every id must be a registered rule id or family name.
    """

    name = "analysis"
    rules = (
        Rule(
            id="analysis.unknown-allow",
            summary="allow() comment names an unknown rule id or family",
            hint=(
                "use a registered id from `repro analyze --list-rules` "
                "(or a bare family name); typos suppress nothing"
            ),
        ),
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        known_ids = {
            rule.id for checker in all_checkers() for rule in checker.rules
        }
        families = set(_CHECKERS)
        for lineno, text in enumerate(module.lines, 1):
            match = _ALLOW_RE.search(text)
            if match is None:
                continue
            for part in match.group(1).split(","):
                identifier = part.strip()
                if not identifier:
                    continue
                if identifier in known_ids or identifier in families:
                    continue
                yield Diagnostic(
                    path=module.relpath,
                    line=lineno,
                    col=match.start() + 1,
                    rule="analysis.unknown-allow",
                    message=(
                        f"allow() names {identifier!r}, which is neither a "
                        f"registered rule id nor a checker family"
                    ),
                    hint=self.rules[0].hint,
                )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class AnalysisResult:
    """Outcome of one analysis run."""

    diagnostics: list[Diagnostic]
    files_scanned: int
    suppressed_inline: int

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def rule_counts(self) -> dict[str, int]:
        """Unsuppressed finding count per rule id, sorted by id."""
        counts: dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.rule] = counts.get(diag.rule, 0) + 1
        return dict(sorted(counts.items()))


def _collect_files(paths: Sequence[str | os.PathLike]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    deduped: dict[Path, None] = {}
    for file_path in files:
        deduped.setdefault(file_path.resolve(), None)
    return list(deduped)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def analyze_paths(
    paths: Sequence[str | os.PathLike],
    root: str | os.PathLike | None = None,
) -> AnalysisResult:
    """Run the checker suite over ``paths`` and apply inline allows.

    Parameters
    ----------
    paths:
        Files or directories to analyze (directories recurse).
    root:
        Paths in diagnostics are reported relative to this directory
        (default: the current working directory).
    """
    root_path = Path(root if root is not None else os.getcwd()).resolve()
    modules = []
    for file_path in _collect_files(paths):
        source = file_path.read_text(encoding="utf-8")
        modules.append(ModuleInfo(file_path, _relpath(file_path, root_path), source))
    module_by_path = {module.relpath: module for module in modules}

    raw: list[Diagnostic] = []
    for checker in all_checkers():
        for module in modules:
            raw.extend(checker.check_module(module))
    raw.sort(key=lambda diag: (diag.path, diag.line, diag.col, diag.rule))

    survivors: list[Diagnostic] = []
    suppressed_inline = 0
    for diag in raw:
        module = module_by_path.get(diag.path)
        if module is not None:
            allowed = module.allowed_rules_at(diag.line)
            family = diag.rule.split(".")[0]
            if diag.rule in allowed or family in allowed:
                suppressed_inline += 1
                continue
        survivors.append(diag)

    return AnalysisResult(
        diagnostics=survivors,
        files_scanned=len(modules),
        suppressed_inline=suppressed_inline,
    )
