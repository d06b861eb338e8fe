"""Guarded-by discipline: annotated fields stay under their lock.

The concurrent layers (``repro.engine``, ``repro.serve``, ``repro.obs``,
``repro.testing.faults``) protect shared mutable state with per-instance
locks. The association between a field and its lock lives only in the
author's head — until it is written down. A structured comment on the
field's ``__init__`` assignment declares it::

    self._records_applied = 0  # guarded-by: _lock

From then on every read or write of ``self._records_applied`` in the
owning class must happen inside a ``with self._lock:`` (or
``async with``) body, in the same function — nested ``def``/``lambda``
bodies do not inherit the held set, because closures outlive the
critical section that created them. ``__init__`` itself is exempt
(construction happens-before publication).

The annotation may sit on the assignment line or in the contiguous
comment block directly above it, mirroring the ``allow()`` grammar.

Escape analysis: returning a *mutable* guarded container (a field
initialized to a ``list``/``dict``/``set``/…) is flagged even while the
lock is held — the caller keeps mutating it after the lock is released.
Return a copy (``list(self._x)``) instead.

Deliberate deviations — lock-free single-word reads in ``__repr__`` or
metric ``value`` properties — carry an audited
``# analysis: allow(guards.unguarded-access)`` with the reasoning.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.core import (
    Checker,
    Diagnostic,
    ModuleInfo,
    Rule,
    dotted_name,
    register_checker,
)

__all__ = ["GuardedByChecker", "guard_annotation_at"]

#: Field annotation: ``self.x = 0  # guarded-by: _lock``.
_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: Initializer shapes that make a guarded field a *mutable container*
#: (returning it leaks guarded state past the critical section).
_MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "deque", "bytearray", "defaultdict", "OrderedDict"}
)


def guard_annotation_at(module: ModuleInfo, lineno: int) -> str | None:
    """The ``guarded-by`` lock name declared on or directly above a line.

    Same grammar as ``allow()``: the flagged line itself, then the
    contiguous block of comment-only (or blank) lines above it.
    """
    match = _GUARDED_RE.search(module.line(lineno))
    if match:
        return match.group(1)
    candidate = lineno - 1
    while candidate >= 1:
        stripped = module.line(candidate).strip()
        if stripped and not stripped.startswith("#"):
            break
        match = _GUARDED_RE.search(stripped)
        if match:
            return match.group(1)
        candidate -= 1
    return None


def _self_attr(node: ast.AST) -> str | None:
    """``X`` when ``node`` is exactly ``self.X``; ``None`` otherwise."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_mutable_initializer(value: ast.AST) -> bool:
    if isinstance(
        value,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(value, ast.Call):
        return dotted_name(value.func).split(".")[-1] in _MUTABLE_CTORS
    return False


class _ClassGuards:
    """Guard declarations harvested from one class's ``__init__``."""

    __slots__ = ("guards", "mutable", "init_attrs", "unknown")

    def __init__(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        #: field -> lock attribute name
        self.guards: dict[str, str] = {}
        #: guarded fields whose initializer is a mutable container
        self.mutable: set[str] = set()
        #: every ``self.X`` assigned in ``__init__`` + class-level attrs
        self.init_attrs: set[str] = set()
        #: (field assignment node, bogus lock name) declarations
        self.unknown: list[tuple[ast.stmt, str]] = []

        init = None
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                init = item
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        self.init_attrs.add(target.id)
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                self.init_attrs.add(item.target.id)
        if init is None:
            return

        declarations: list[tuple[ast.stmt, str, ast.AST | None]] = []
        for stmt in ast.walk(init):
            targets: list[ast.expr] = []
            value: ast.AST | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.target is not None:
                targets, value = [stmt.target], stmt.value
            elif isinstance(stmt, ast.AugAssign):
                targets, value = [stmt.target], None
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                self.init_attrs.add(attr)
                lock = guard_annotation_at(module, stmt.lineno)
                if lock is not None:
                    declarations.append((stmt, attr, value))
                    self.guards[attr] = lock
                    if value is not None and _is_mutable_initializer(value):
                        self.mutable.add(attr)

        for stmt, attr, _value in declarations:
            lock = self.guards[attr]
            if lock not in self.init_attrs:
                self.unknown.append((stmt, lock))
                # Unenforceable: ``with self.<lock>:`` cannot appear for
                # a lock that does not exist, so drop the guard rather
                # than flooding every access site.
                self.guards.pop(attr, None)
                self.mutable.discard(attr)


@register_checker
class GuardedByChecker(Checker):
    """Enforce ``# guarded-by:`` field annotations (module docstring)."""

    name = "guards"
    rules = (
        Rule(
            id="guards.unguarded-access",
            summary="lock-guarded field accessed outside its lock",
            hint=(
                "wrap the access in `with self.<lock>:` (or take a local "
                "snapshot under the lock); a deliberate lock-free read "
                "needs # analysis: allow(guards.unguarded-access) -- why"
            ),
        ),
        Rule(
            id="guards.mutable-escape",
            summary="mutable guarded container returned to the caller",
            hint=(
                "return a copy (list(...)/dict(...)) taken under the "
                "lock; the caller outlives the critical section"
            ),
        ),
        Rule(
            id="guards.unknown-lock",
            summary="guarded-by annotation names a nonexistent lock",
            hint=(
                "name an attribute assigned in this class (e.g. a "
                "threading.Lock created in __init__); check the spelling"
            ),
        ),
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleInfo, node: ast.ClassDef
    ) -> Iterator[Diagnostic]:
        harvest = _ClassGuards(module, node)
        for stmt, lock in harvest.unknown:
            yield self.diagnostic(
                module,
                stmt,
                "guards.unknown-lock",
                f"guarded-by names {lock!r}, which is not an attribute of "
                f"class {node.name!r} — the guard cannot be enforced",
            )
        if not harvest.guards:
            return
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue
            yield from self._check_method(module, node, harvest, item)

    def _check_method(
        self,
        module: ModuleInfo,
        class_node: ast.ClassDef,
        harvest: _ClassGuards,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Diagnostic]:
        guards = harvest.guards
        out: list[Diagnostic] = []

        def scan(node: ast.AST, held: frozenset[str]) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                # Deferred execution: the closure may run long after the
                # enclosing critical section released the lock.
                for child in ast.iter_child_nodes(node):
                    scan(child, frozenset())
                return
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired: set[str] = set()
                for item in node.items:
                    scan(item.context_expr, held)
                    if item.optional_vars is not None:
                        scan(item.optional_vars, held)
                    attr = _self_attr(item.context_expr)
                    if attr is not None:
                        acquired.add(attr)
                inner = held | acquired
                for stmt in node.body:
                    scan(stmt, inner)
                return
            if isinstance(node, ast.Return) and node.value is not None:
                attr = _self_attr(node.value)
                if (
                    attr in harvest.mutable
                    and guards[attr] in held
                ):
                    out.append(
                        self.diagnostic(
                            module,
                            node,
                            "guards.mutable-escape",
                            f"'self.{attr}' (guarded by "
                            f"'{guards[attr]}') is a mutable container; "
                            f"returning it leaks guarded state past the "
                            f"lock release",
                        )
                    )
            attr = _self_attr(node)
            if attr is not None and attr in guards:
                lock = guards[attr]
                if lock not in held:
                    verb = (
                        "written"
                        if isinstance(
                            getattr(node, "ctx", None), (ast.Store, ast.Del)
                        )
                        else "read"
                    )
                    out.append(
                        self.diagnostic(
                            module,
                            node,
                            "guards.unguarded-access",
                            f"'self.{attr}' is declared guarded-by "
                            f"'{lock}' but is {verb} in "
                            f"{class_node.name}.{method.name} without "
                            f"holding it",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                scan(child, held)

        for stmt in method.body:
            scan(stmt, frozenset())
        yield from out
