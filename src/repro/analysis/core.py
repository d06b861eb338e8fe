"""Static-analysis framework: rules, diagnostics, suppression, baseline.

The paper's O(1)-query and reproducible-accuracy claims survive only as
long as the implementation keeps a handful of mechanical invariants:
hash-plane code stays vectorized (no per-item Python), randomness flows
from explicit seeds, hash planes keep their ``uint64`` dtype discipline,
every estimator honours the :class:`~repro.estimators.base.CardinalityEstimator`
contract, and serialized state round-trips completely. This package
enforces those invariants by walking the AST of every source file —
``repro analyze src/repro`` is the gating entry point.

Architecture
------------

- :class:`Rule` — one invariant with a stable id (``purity.loop``),
  a summary and a fix hint;
- :class:`Diagnostic` — one finding: ``path:line:col``, the rule id and
  a concrete message;
- :class:`Checker` — base class; subclasses implement
  :meth:`Checker.check_module` (per-file AST walks) and/or
  :meth:`Checker.check_project` (cross-file invariants over the
  :class:`ProjectModel`);
- :class:`ProjectModel` — the parsed view of every analyzed module:
  the class graph (with ``CardinalityEstimator`` subclass resolution)
  and ``__all__`` exports, shared by the contract checkers;
- suppression — inline ``# analysis: allow(purity.loop) -- reason``
  comments on (or directly above) the flagged line, plus a checked-in
  JSON baseline for findings that cannot carry an inline comment. The
  shipped baseline is empty for ``src/repro``: real findings get fixed,
  not baselined. Allow ids are themselves audited
  (``analysis.unknown-allow``) and baseline entries that suppress
  nothing are reported as stale.

Checkers register themselves via :func:`register_checker`; importing
:mod:`repro.analysis` loads the standard suite.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "AnalysisResult",
    "Checker",
    "ClassInfo",
    "Diagnostic",
    "ModuleInfo",
    "ProjectModel",
    "Rule",
    "all_checkers",
    "all_rules",
    "analyze_paths",
    "dotted_name",
    "load_baseline",
    "register_checker",
    "write_baseline",
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

    def to_json(self) -> dict[str, object]:
        """All fields as a JSON-serializable dict (``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }


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


@dataclass
class ClassInfo:
    """A class definition plus the links the cross-file checkers need."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    bases: list[str]  # unqualified base-class names
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    class_attrs: set[str] = field(default_factory=set)
    is_abstract: bool = False
    parents: list["ClassInfo"] = field(default_factory=list)

    def mro_methods(self) -> dict[str, ast.FunctionDef]:
        """Methods visible on this class through the resolved parents."""
        resolved: dict[str, ast.FunctionDef] = {}
        for parent in reversed(self._linearized()):
            resolved.update(parent.methods)
        return resolved

    def mro_class_attrs(self) -> set[str]:
        """Class-level attribute names across the resolved ancestry."""
        attrs: set[str] = set()
        for parent in self._linearized():
            attrs.update(parent.class_attrs)
        return attrs

    def _linearized(self) -> list["ClassInfo"]:
        """This class then its ancestors, deduplicated, child-first."""
        seen: dict[int, ClassInfo] = {}
        stack: list[ClassInfo] = [self]
        order: list[ClassInfo] = []
        while stack:
            info = stack.pop(0)
            if id(info) in seen:
                continue
            seen[id(info)] = info
            order.append(info)
            stack.extend(info.parents)
        return order


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


def _is_abstract(node: ast.ClassDef) -> bool:
    for base in node.bases:
        if dotted_name(base).split(".")[-1] in ("ABC", "ABCMeta"):
            return True
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in item.decorator_list:
                if dotted_name(decorator).endswith("abstractmethod"):
                    return True
    return False


class ProjectModel:
    """Cross-file view of all analyzed modules.

    Builds the class graph once; checkers that need inheritance
    resolution (contracts) query it instead of re-walking every tree.
    """

    #: Root of the estimator class hierarchy.
    ESTIMATOR_BASE = "CardinalityEstimator"

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules = list(modules)
        self.classes: list[ClassInfo] = []
        self._by_name: dict[str, list[ClassInfo]] = {}
        #: ``__all__`` entries per module relpath.
        self.exports: dict[str, set[str]] = {}
        for module in self.modules:
            self._index_module(module)
        self._link_parents()

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _index_module(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                self._index_class(module, node)
        for node in module.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                self.exports[module.relpath] = {
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                }

    def _index_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        info = ClassInfo(
            name=node.name,
            module=module,
            node=node,
            bases=[
                dotted_name(base).split(".")[-1]
                for base in node.bases
                if dotted_name(base)
            ],
            is_abstract=_is_abstract(node),
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(item, ast.FunctionDef):
                    info.methods.setdefault(item.name, item)
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        info.class_attrs.add(target.id)
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                info.class_attrs.add(item.target.id)
        self.classes.append(info)
        self._by_name.setdefault(info.name, []).append(info)

    def _link_parents(self) -> None:
        for info in self.classes:
            for base in info.bases:
                info.parents.extend(self._by_name.get(base, ()))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find_classes(self, name: str) -> list[ClassInfo]:
        """Every analyzed class with this name (may span files)."""
        return list(self._by_name.get(name, ()))

    def estimator_classes(self) -> list[ClassInfo]:
        """Every class that (transitively) subclasses the estimator base."""
        return [
            info
            for info in self.classes
            if info.name != self.ESTIMATOR_BASE
            and self._descends_from(info, self.ESTIMATOR_BASE)
        ]

    def _descends_from(self, info: ClassInfo, base_name: str) -> bool:
        seen: set[int] = set()
        stack = list(info.parents)
        names = set(info.bases)
        while stack:
            parent = stack.pop()
            if id(parent) in seen:
                continue
            seen.add(id(parent))
            names.add(parent.name)
            names.update(parent.bases)
            stack.extend(parent.parents)
        return base_name in names


# ----------------------------------------------------------------------
# Checker base + registry
# ----------------------------------------------------------------------
class Checker:
    """Base class: one named checker contributing one rule family."""

    #: Short family name, e.g. ``"purity"``.
    name: str = "base"
    #: The rules this checker can emit.
    rules: tuple[Rule, ...] = ()

    def check_module(
        self, module: ModuleInfo, project: ProjectModel
    ) -> Iterator[Diagnostic]:
        """Per-file findings (default: none)."""
        return iter(())

    def check_project(self, project: ProjectModel) -> Iterator[Diagnostic]:
        """Cross-file findings (default: none)."""
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


def all_checkers(names: Iterable[str] | None = None) -> list[Checker]:
    """Instantiate the registered checkers (optionally a subset)."""
    selected = list(_CHECKERS) if names is None else list(names)
    unknown = [name for name in selected if name not in _CHECKERS]
    if unknown:
        raise KeyError(
            f"unknown checker(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(sorted(_CHECKERS))}"
        )
    return [_CHECKERS[name]() for name in selected]


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

    def check_module(
        self, module: ModuleInfo, project: ProjectModel
    ) -> Iterator[Diagnostic]:
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
# Baseline
# ----------------------------------------------------------------------
def load_baseline(path: str | os.PathLike) -> dict[tuple[str, str], int]:
    """Load a baseline file → ``{(path, rule): allowed_count}``.

    The baseline suppresses up to ``count`` findings of a rule in a
    file — insensitive to line drift, so refactors don't invalidate it.
    A missing file is an empty baseline.
    """
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return {}
    if not isinstance(payload, dict) or payload.get("version") != 1:
        raise ValueError(f"unsupported baseline format in {path}")
    allowed: dict[tuple[str, str], int] = {}
    for entry in payload.get("suppressions", []):
        key = (str(entry["path"]), str(entry["rule"]))
        allowed[key] = allowed.get(key, 0) + int(entry.get("count", 1))
    return allowed


def write_baseline(
    path: str | os.PathLike, diagnostics: Sequence[Diagnostic]
) -> None:
    """Write the current findings as a baseline file."""
    counts: dict[tuple[str, str], int] = {}
    for diag in diagnostics:
        key = (diag.path, diag.rule)
        counts[key] = counts.get(key, 0) + 1
    payload = {
        "version": 1,
        "suppressions": [
            {"path": file_path, "rule": rule, "count": count}
            for (file_path, rule), count in sorted(counts.items())
        ],
    }
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class AnalysisResult:
    """Outcome of one analysis run."""

    diagnostics: list[Diagnostic]
    files_scanned: int
    suppressed_inline: int
    suppressed_baseline: int
    #: Baseline entries that suppressed nothing this run — stale budget
    #: (the finding was fixed, or the entry was written with count 0).
    stale_baseline: list[tuple[str, str]] = field(default_factory=list)

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
    checkers: Sequence[str] | None = None,
    baseline: str | os.PathLike | None = None,
) -> AnalysisResult:
    """Run the checker suite over ``paths`` and apply suppressions.

    Parameters
    ----------
    paths:
        Files or directories to analyze (directories recurse).
    root:
        Paths in diagnostics are reported relative to this directory
        (default: the current working directory).
    checkers:
        Subset of checker names to run (default: all registered).
    baseline:
        Optional baseline file of accepted findings.
    """
    root_path = Path(root if root is not None else os.getcwd()).resolve()
    modules = []
    for file_path in _collect_files(paths):
        source = file_path.read_text(encoding="utf-8")
        modules.append(ModuleInfo(file_path, _relpath(file_path, root_path), source))
    project = ProjectModel(modules)
    module_by_path = {module.relpath: module for module in modules}

    raw: list[Diagnostic] = []
    for checker in all_checkers(checkers):
        for module in modules:
            raw.extend(checker.check_module(module, project))
        raw.extend(checker.check_project(project))
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

    suppressed_baseline = 0
    stale_baseline: list[tuple[str, str]] = []
    if baseline is not None:
        budget = load_baseline(baseline)
        loaded = dict(budget)
        remaining: list[Diagnostic] = []
        for diag in survivors:
            key = (diag.path, diag.rule)
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                suppressed_baseline += 1
            else:
                remaining.append(diag)
        survivors = remaining
        stale_baseline = sorted(
            key
            for key, count in loaded.items()
            if count == budget.get(key, 0)
        )

    return AnalysisResult(
        diagnostics=survivors,
        files_scanned=len(modules),
        suppressed_inline=suppressed_inline,
        suppressed_baseline=suppressed_baseline,
        stale_baseline=stale_baseline,
    )
