"""Hot-path purity: plane paths must stay vectorized.

The paper's throughput results (Tables IV and VIII) rest on the batch
recording path doing O(1) Python-level work per *chunk*, not per item:
``_record_plane`` implementations and everything in ``repro.kernels``
must express their work as NumPy array operations. A single per-item
Python loop silently turns the 20-35x kernel speedups recorded in
``BENCH_kernels.json`` back into interpreter-bound code — the estimate
stays correct, so only throughput benchmarks (which CI does not gate
on) would ever notice.

Rules
-----

- ``purity.loop`` — no ``for``/``while`` statements in hot scope.
  Chunk-stepping or per-shard loops (bounded by chunks/shards/levels,
  not stream length) are legitimate; they must carry an inline
  ``# analysis: allow(purity.loop) -- <why it is not per-item>``
  justification so every loop in a hot path is auditable.
- ``purity.scalar-call`` — no per-item scalar conversions:
  ``int(x[i])``/``float(x[i])`` over subscripted elements, any
  ``int()``/``float()`` inside a hot-scope loop, and ``.tolist()``
  (which materializes Python objects for every element).
- ``purity.item-call`` — no ``.item()`` extraction in hot scope; a
  device/array scalar crossing into Python is the classic start of a
  per-item path.
- ``purity.metric-in-loop`` — no metric instrument calls
  (``.inc``/``.dec``/``.observe``, or ``.set``/``.update``/``.labels``
  on a metric-ish receiver) inside a hot-scope loop. The
  ``repro.obs`` overhead policy allows instrumentation per chunk or
  per batch only; a metric touched under a loop in a plane path is on
  its way to per-item cost.

Hot scope is every function named ``_record_plane`` (including nested
helpers) and every function defined in a ``repro/kernels`` module. The
scalar reference paths (``_record_u64``, ``_record_batch``) are
deliberately out of scope: they are the executable specification the
vectorized paths are property-tested against.
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

_HOT_FUNCTION = "_record_plane"
_KERNEL_MARKER = "repro/kernels/"

#: Unambiguous metric-instrument methods (repro.obs vocabulary).
_METRIC_CALLS = frozenset({"inc", "dec", "observe"})
#: Methods that are metric calls only on a metric-ish receiver
#: (``.set``/``.update`` are too common to flag unconditionally).
_METRIC_RECEIVER_CALLS = frozenset({"set", "update", "labels"})
_METRIC_TOKENS = ("metric", "gauge", "counter", "histogram", "obs", "sink")


def _metric_receiver(func: ast.Attribute) -> bool:
    """True when the attribute's receiver name smells like an instrument."""
    receiver = dotted_name(func.value).lower()
    return any(token in receiver for token in _METRIC_TOKENS)


def _is_kernel_module(module: ModuleInfo) -> bool:
    return _KERNEL_MARKER in module.relpath


def _hot_functions(module: ModuleInfo) -> list[ast.FunctionDef]:
    """Top-most hot functions (their whole bodies are in scope)."""
    if _is_kernel_module(module):
        return [
            node
            for node in module.tree.body
            if isinstance(node, ast.FunctionDef)
        ] + [
            item
            for node in module.tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        ]
    return [
        node
        for node in ast.walk(module.tree)
        if isinstance(node, ast.FunctionDef) and node.name == _HOT_FUNCTION
    ]


def _contains_subscript(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Subscript) for sub in ast.walk(node))


@register_checker
class PurityChecker(Checker):
    """No per-item Python in ``_record_plane`` or ``repro.kernels``."""

    name = "purity"
    rules = (
        Rule(
            id="purity.loop",
            summary="for/while loop in a hot plane path",
            hint=(
                "vectorize with array ops, or justify a chunk-level loop "
                "inline: # analysis: allow(purity.loop) -- <reason>"
            ),
        ),
        Rule(
            id="purity.scalar-call",
            summary="per-item scalar conversion in a hot plane path",
            hint=(
                "keep values in arrays; int()/float() over elements and "
                ".tolist() belong in the scalar reference path only"
            ),
        ),
        Rule(
            id="purity.item-call",
            summary=".item() extraction in a hot plane path",
            hint="use array indexing/reductions instead of .item()",
        ),
        Rule(
            id="purity.metric-in-loop",
            summary="metric instrument call inside a hot-path loop",
            hint=(
                "instrument per chunk/batch, outside the loop; the "
                "repro.obs overhead policy forbids per-item metric work"
            ),
        ),
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for function in _hot_functions(module):
            yield from self._check_function(module, function)

    def _check_function(
        self, module: ModuleInfo, function: ast.FunctionDef
    ) -> Iterator[Diagnostic]:
        loop_depth_of: dict[int, int] = {}

        def visit(node: ast.AST, loop_depth: int) -> None:
            loop_depth_of[id(node)] = loop_depth
            inner = loop_depth + isinstance(node, (ast.For, ast.While))
            for child in ast.iter_child_nodes(node):
                visit(child, inner)

        visit(function, 0)

        where = f"{function.name}()"
        for node in ast.walk(function):
            if isinstance(node, (ast.For, ast.While)):
                kind = "for" if isinstance(node, ast.For) else "while"
                yield self.diagnostic(
                    module,
                    node,
                    "purity.loop",
                    f"{kind} loop in hot path {where}",
                )
            elif isinstance(node, ast.Call):
                in_loop = loop_depth_of.get(id(node), 0) > 0
                func = node.func
                if isinstance(func, ast.Name) and func.id in ("int", "float"):
                    per_item = in_loop or any(
                        _contains_subscript(arg) for arg in node.args
                    )
                    if per_item:
                        yield self.diagnostic(
                            module,
                            node,
                            "purity.scalar-call",
                            f"per-item {func.id}() in hot path {where}",
                        )
                elif isinstance(func, ast.Attribute):
                    if func.attr == "item":
                        yield self.diagnostic(
                            module,
                            node,
                            "purity.item-call",
                            f".item() call in hot path {where}",
                        )
                    elif func.attr == "tolist":
                        yield self.diagnostic(
                            module,
                            node,
                            "purity.scalar-call",
                            f".tolist() materialization in hot path {where}",
                        )
                    elif in_loop and (
                        func.attr in _METRIC_CALLS
                        or (
                            func.attr in _METRIC_RECEIVER_CALLS
                            and _metric_receiver(func)
                        )
                    ):
                        yield self.diagnostic(
                            module,
                            node,
                            "purity.metric-in-loop",
                            f".{func.attr}() metric call inside a loop in "
                            f"hot path {where}",
                        )
