"""Asyncio hygiene for the serving layer.

``repro.serve`` keeps the ESTIMATE fast path inline on the event loop —
which is only safe while *nothing* on that loop blocks. Two failure
modes recur in asyncio servers and are mechanical enough to check:

- **Blocking calls in coroutines** — ``time.sleep``, synchronous
  file/socket I/O, or a direct pipeline verb (``submit``/``drain``/
  ``paused``/``checkpoint_now``/``close`` on a pipeline-shaped
  receiver) called inside an ``async def`` stalls every connection.
  Pipeline verbs belong behind ``loop.run_in_executor`` (passing the
  bound method as an argument is fine — only a *call* is flagged).

- **Fire-and-forget tasks** — ``loop.create_task(...)`` /
  ``asyncio.ensure_future(...)`` as a bare expression statement: the
  event loop holds only a weak reference, so the task can be
  garbage-collected mid-flight and its exceptions vanish. Keep a
  reference and await or cancel it on shutdown.

Rules fire inside ``async def`` bodies regardless of decorators, and do
not descend into nested *sync* ``def``s (those typically run in
executor threads, where blocking is the point).
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

__all__ = ["AsyncioHygieneChecker"]

#: Fully dotted calls that block the event loop.
_BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "socket.socket",
        "socket.create_connection",
        "os.system",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
    }
)

#: Pipeline verbs that take locks / block when called synchronously.
_PIPELINE_VERBS = frozenset(
    {"submit", "drain", "paused", "checkpoint_now", "close"}
)

_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})


def _last(name: str) -> str:
    return name.split(".")[-1]


def _receiver_is_pipeline(func: ast.Attribute) -> bool:
    receiver = dotted_name(func.value)
    return "pipeline" in receiver.lower()


class _AsyncBodyVisitor:
    """Collect the calls inside one ``async def`` body, without
    descending into nested function definitions."""

    def __init__(self, root: ast.AsyncFunctionDef) -> None:
        self.calls: list[ast.Call] = []
        self._walk_block(root.body)

    def _walk_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk(stmt)

    def _walk(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Call):
            self.calls.append(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child)


@register_checker
class AsyncioHygieneChecker(Checker):
    """Event-loop discipline for ``repro.serve`` (module docstring)."""

    name = "asyncio"
    rules = (
        Rule(
            id="asyncio.blocking-call",
            summary="blocking call inside an async def stalls the loop",
            hint=(
                "use the asyncio equivalent (asyncio.sleep, streams) or "
                "move it behind loop.run_in_executor"
            ),
        ),
        Rule(
            id="asyncio.untracked-task",
            summary="fire-and-forget create_task without a retained reference",
            hint=(
                "assign the task (self._task = loop.create_task(...)) and "
                "await or cancel it on shutdown; the loop only keeps a "
                "weak reference"
            ),
        ),
    )

    # ------------------------------------------------------------------
    # Per-module rules
    # ------------------------------------------------------------------
    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_blocking(module, node)
            elif isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Call
            ):
                func_name = _last(dotted_name(node.value.func))
                if func_name in _TASK_SPAWNERS:
                    yield self.diagnostic(
                        module,
                        node,
                        "asyncio.untracked-task",
                        f"{func_name}(...) result is discarded — the task "
                        f"may be garbage-collected mid-flight",
                    )

    def _check_blocking(
        self, module: ModuleInfo, func: ast.AsyncFunctionDef
    ) -> Iterator[Diagnostic]:
        for call in _AsyncBodyVisitor(func).calls:
            name = dotted_name(call.func)
            if name in _BLOCKING_DOTTED or name == "open":
                yield self.diagnostic(
                    module,
                    call,
                    "asyncio.blocking-call",
                    f"blocking call {name}(...) inside async def "
                    f"{func.name!r} stalls the event loop",
                )
            elif (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in _PIPELINE_VERBS
                and _receiver_is_pipeline(call.func)
            ):
                yield self.diagnostic(
                    module,
                    call,
                    "asyncio.blocking-call",
                    f"direct pipeline call .{call.func.attr}(...) inside "
                    f"async def {func.name!r} blocks the event loop; "
                    f"offload it via loop.run_in_executor",
                )
