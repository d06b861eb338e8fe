"""Contract conformance for the estimator zoo.

Everything downstream of an estimator — the bench harness, the sharded
engine, the checkpoint layer, the property-test suite — programs against
the :class:`~repro.estimators.base.CardinalityEstimator` contract. A
class that drifts from it (a missing method, an undeclared plane
request) fails at a distance: the engine prefetches the wrong hash
arrays, or a bench table loses a column.

Rules
-----

- ``contract.missing-method`` — every concrete estimator subclass must
  implement (or inherit) ``_record_u64``, ``query`` and ``memory_bits``.
- ``contract.missing-name`` — every concrete estimator subclass must
  carry a display ``name`` distinct from the base default; the bench
  tables and the engine CLI key on it.
- ``contract.plane-mismatch`` — the hash arrays ``_record_plane`` reads
  off the plane (``plane.uniform``/``geometric``/``positions``) must be
  advertised by the class's ``plane_requests`` via the matching
  ``*_request`` helpers. An unadvertised read defeats the pool/pipeline
  prefetch: the shards silently re-hash every chunk.
- ``contract.unexported`` — a public estimator defined under
  ``repro/estimators/`` must be exported in the package ``__all__``.

The subclass graph is resolved across all analyzed files by
:class:`~repro.analysis.core.ProjectModel`; the export rule is skipped
when the analyzed path set does not include the package ``__init__``
(e.g. when analyzing a test fixture directory). Serializable estimators
need no rule: declaring a state registers the class
(:mod:`repro.estimators.registry`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Checker,
    ClassInfo,
    Diagnostic,
    ProjectModel,
    Rule,
    dotted_name,
    register_checker,
)

_REQUIRED_METHODS = ("_record_u64", "query", "memory_bits")
_PLANE_KINDS = ("uniform", "geometric", "positions")
_ESTIMATOR_PACKAGE = "repro/estimators/"
_ESTIMATOR_INIT = "repro/estimators/__init__.py"


def _first_param(function: ast.FunctionDef) -> str:
    args = [arg.arg for arg in function.args.args if arg.arg != "self"]
    return args[0] if args else ""


def _plane_kinds_read(function: ast.FunctionDef) -> set[str]:
    """Hash-array kinds read directly off the plane parameter."""
    plane = _first_param(function)
    if not plane:
        return set()
    kinds: set[str] = set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _PLANE_KINDS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == plane
        ):
            kinds.add(node.func.attr)
    return kinds


def _request_kinds_declared(function: ast.FunctionDef) -> set[str]:
    """Kinds advertised through ``*_request`` helper references."""
    kinds: set[str] = set()
    for node in ast.walk(function):
        name = ""
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = dotted_name(node).split(".")[-1]
        for kind in _PLANE_KINDS:
            if name == f"{kind}_request":
                kinds.add(kind)
    return kinds


@register_checker
class ContractChecker(Checker):
    """Estimator subclasses keep the library-wide contract."""

    name = "contract"
    rules = (
        Rule(
            id="contract.missing-method",
            summary="estimator subclass missing a required method",
            hint="implement _record_u64/query/memory_bits or mark the class abstract",
        ),
        Rule(
            id="contract.missing-name",
            summary="estimator subclass without a display name",
            hint='set a class-level ``name = "..."`` (bench tables key on it)',
        ),
        Rule(
            id="contract.plane-mismatch",
            summary="_record_plane reads a hash array plane_requests does not advertise",
            hint="add the matching *_request(...) entry to plane_requests()",
        ),
        Rule(
            id="contract.unexported",
            summary="public estimator not exported from repro.estimators",
            hint="add the class to repro/estimators/__init__.py __all__",
        ),
    )

    def check_project(self, project: ProjectModel) -> Iterator[Diagnostic]:
        estimator_exports = project.exports.get(_ESTIMATOR_INIT)
        for info in project.estimator_classes():
            if info.is_abstract:
                continue
            yield from self._check_required(info)
            yield from self._check_name(info)
            yield from self._check_plane_requests(info)
            if estimator_exports is not None:
                yield from self._check_exported(info, estimator_exports)

    # ------------------------------------------------------------------
    # Individual rules
    # ------------------------------------------------------------------
    def _check_required(self, info: ClassInfo) -> Iterator[Diagnostic]:
        available = info.mro_methods()
        for method in _REQUIRED_METHODS:
            if method not in available:
                yield self.diagnostic(
                    info.module,
                    info.node,
                    "contract.missing-method",
                    f"{info.name} does not implement or inherit {method}()",
                )

    def _check_name(self, info: ClassInfo) -> Iterator[Diagnostic]:
        for ancestor in [info, *self._ancestors(info)]:
            if ancestor.name == ProjectModel.ESTIMATOR_BASE:
                continue  # the base default name does not count
            if "name" in ancestor.class_attrs:
                return
        yield self.diagnostic(
            info.module,
            info.node,
            "contract.missing-name",
            f"{info.name} inherits the placeholder display name of the base "
            "class",
        )

    def _check_plane_requests(self, info: ClassInfo) -> Iterator[Diagnostic]:
        record_plane = info.methods.get("_record_plane")
        if record_plane is None:
            return
        kinds_read = _plane_kinds_read(record_plane)
        if not kinds_read:
            return
        requests = info.mro_methods().get("plane_requests")
        declared = (
            _request_kinds_declared(requests) if requests is not None else set()
        )
        for kind in sorted(kinds_read - declared):
            yield self.diagnostic(
                info.module,
                record_plane,
                "contract.plane-mismatch",
                f"{info.name}._record_plane reads plane.{kind}(...) but "
                f"plane_requests() never advertises {kind}_request",
            )

    def _check_exported(
        self, info: ClassInfo, exports: set[str]
    ) -> Iterator[Diagnostic]:
        if not info.module.relpath.startswith(_ESTIMATOR_PACKAGE):
            return
        if info.name.startswith("_"):
            return
        if info.name not in exports:
            yield self.diagnostic(
                info.module,
                info.node,
                "contract.unexported",
                f"{info.name} is defined in the estimator package but not "
                "exported via __all__",
            )

    @staticmethod
    def _ancestors(info: ClassInfo) -> list[ClassInfo]:
        seen: set[int] = set()
        stack = list(info.parents)
        order: list[ClassInfo] = []
        while stack:
            parent = stack.pop()
            if id(parent) in seen:
                continue
            seen.add(id(parent))
            order.append(parent)
            stack.extend(parent.parents)
        return order
