"""Dtype discipline: hash planes are uint64 in, declared dtypes out.

The whole kernel layer rests on one convention (``repro.hashing``
canonicalizes every item to ``uint64``; ``HashPlane`` trusts that dtype
and every downstream consumer preserves it). An implicit cast — an
untyped ``np.array(...)`` defaulting to ``int64``/``float64``, or an
``astype`` without a declared copy policy — either corrupts hash values
(signed overflow on the splitmix64 constants) or silently doubles the
memory traffic of a path whose cost model the paper's Table I accounts
to the bit.

Rules
-----

- ``dtype.untyped-array`` — array constructors (``np.array``,
  ``np.asarray``, ``np.zeros``, ``np.empty``, ``np.ones``, ``np.full``,
  ``np.arange``, ``np.fromiter``) in dtype-critical scope must pass an
  explicit ``dtype=``; the platform-dependent default integer dtype is
  exactly the implicit cast this rule exists to prevent.
- ``dtype.astype-copy`` — ``astype(...)`` in dtype-critical scope must
  state its copy policy (``copy=False`` to allow aliasing when the
  dtype already matches, ``copy=True`` when a mutable private copy is
  the point). A bare ``astype`` copies unconditionally — a silent
  allocation per chunk on the hot path.

Dtype-critical scope: every ``repro/kernels`` and ``repro/hashing``
module (the plane producers) and every ``_record_plane`` function (the
plane consumers).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Checker,
    Diagnostic,
    ModuleInfo,
    Rule,
    dotted_name,
    register_checker,
)

_CRITICAL_MARKERS = ("repro/kernels/", "repro/hashing/")
_HOT_FUNCTION = "_record_plane"

_CONSTRUCTORS = {
    "array",
    "asarray",
    "zeros",
    "empty",
    "ones",
    "full",
    "arange",
    "fromiter",
}


def _critical_roots(module: ModuleInfo) -> list[ast.AST]:
    """AST roots whose subtrees are dtype-critical in this module."""
    if any(marker in module.relpath for marker in _CRITICAL_MARKERS):
        return [module.tree]
    return [
        node
        for node in ast.walk(module.tree)
        if isinstance(node, ast.FunctionDef) and node.name == _HOT_FUNCTION
    ]


@register_checker
class DtypeChecker(Checker):
    """Explicit dtypes and copy policies in plane producers/consumers."""

    name = "dtype"
    rules = (
        Rule(
            id="dtype.untyped-array",
            summary="array constructor without an explicit dtype",
            hint="pass dtype=np.uint64 (hash values) or the intended dtype",
        ),
        Rule(
            id="dtype.astype-copy",
            summary="astype() without an explicit copy policy",
            hint=(
                "write astype(dtype, copy=False) unless a private copy is "
                "intended (then copy=True)"
            ),
        ),
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        seen: set[int] = set()
        for root in _critical_roots(module):
            for node in ast.walk(root):
                if id(node) in seen or not isinstance(node, ast.Call):
                    continue
                seen.add(id(node))
                yield from self._check_call(module, node)

    def _check_call(
        self, module: ModuleInfo, node: ast.Call
    ) -> Iterator[Diagnostic]:
        name = dotted_name(node.func)
        keyword_names = {keyword.arg for keyword in node.keywords}
        parts = name.split(".")
        if (
            len(parts) == 2
            and parts[0] in ("np", "numpy")
            and parts[1] in _CONSTRUCTORS
        ):
            if "dtype" not in keyword_names:
                yield self.diagnostic(
                    module,
                    node,
                    "dtype.untyped-array",
                    f"{name}(...) without dtype= relies on the platform "
                    "default dtype",
                )
        elif (
            # dotted_name cannot render receivers that are themselves
            # call results (`np.minimum(...).astype(...)`); match the
            # method name structurally instead.
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
        ):
            if "copy" not in keyword_names:
                yield self.diagnostic(
                    module,
                    node,
                    "dtype.astype-copy",
                    "astype(...) without copy= always copies; declare the "
                    "copy policy",
                )
