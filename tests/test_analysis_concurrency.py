"""Tests for the concurrency tier of repro.analysis.

Fixture coverage for the two concurrency checkers (guards, asyncio)
plus the allow-audit meta rule: every rule gets a bad snippet asserting
the exact rule id at the exact line, and a good snippet that must stay
clean. On top of the per-rule fixtures the suite covers the framework
edges (guarded-by naming a nonexistent lock, allow() with an unknown
id, decorated async handlers).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import analyze_paths


def run_on(tmp_path: Path, source: str, filename: str = "snippet.py"):
    """Write ``source`` under ``tmp_path`` and analyze it."""
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return analyze_paths([target], root=tmp_path)


def findings(result, rule: str) -> list[tuple[int, str]]:
    return [
        (diag.line, diag.rule)
        for diag in result.diagnostics
        if diag.rule == rule
    ]


# ----------------------------------------------------------------------
# guards: guarded-by field discipline
# ----------------------------------------------------------------------
class TestGuardedBy:
    def test_unguarded_write_flagged_with_line(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def bump(self):
                    self._count += 1
            """,
        )
        assert findings(result, "guards.unguarded-access") == [
            (9, "guards.unguarded-access")
        ]
        (diag,) = result.diagnostics
        assert "written" in diag.message
        assert "_lock" in diag.message

    def test_unguarded_read_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def peek(self):
                    return self._count
            """,
        )
        assert findings(result, "guards.unguarded-access") == [
            (9, "guards.unguarded-access")
        ]
        assert "read" in result.diagnostics[0].message

    def test_access_under_lock_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self._count += 1

                async def bump_async(self):
                    async with self._lock:
                        self._count += 1
            """,
        )
        assert result.diagnostics == []

    def test_init_is_exempt(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Box:
                def __init__(self, start):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock
                    self._count = start
            """,
        )
        assert result.diagnostics == []

    def test_closure_does_not_inherit_held_lock(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def deferred(self):
                    with self._lock:
                        def inner():
                            return self._count
                        return inner
            """,
        )
        assert findings(result, "guards.unguarded-access") == [
            (11, "guards.unguarded-access")
        ]

    def test_annotation_in_comment_block_above(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    # the ingest counter, see docs/engine.md
                    # guarded-by: _lock
                    self._count = 0

                def peek(self):
                    return self._count
            """,
        )
        assert findings(result, "guards.unguarded-access") == [
            (11, "guards.unguarded-access")
        ]

    def test_mutable_container_escape_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []  # guarded-by: _lock

                def snapshot(self):
                    with self._lock:
                        return self._items
            """,
        )
        assert findings(result, "guards.mutable-escape") == [
            (10, "guards.mutable-escape")
        ]
        assert findings(result, "guards.unguarded-access") == []

    def test_returning_a_copy_is_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []  # guarded-by: _lock

                def snapshot(self):
                    with self._lock:
                        return list(self._items)
            """,
        )
        assert result.diagnostics == []

    def test_unknown_lock_reported_once_at_declaration(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Broken:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = 0  # guarded-by: _missing

                def read(self):
                    return self._value
            """,
        )
        # The bogus declaration is flagged where it is written, and the
        # unenforceable guard is dropped: accesses are NOT flooded.
        assert findings(result, "guards.unknown-lock") == [
            (6, "guards.unknown-lock")
        ]
        assert findings(result, "guards.unguarded-access") == []
        assert "_missing" in result.diagnostics[0].message

    def test_allow_comment_suppresses_access(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def __repr__(self):
                    # analysis: allow(guards.unguarded-access) -- repr reads
                    # a GIL-atomic int; staleness is fine in a debugger.
                    return f"Box({self._count})"
            """,
        )
        assert result.diagnostics == []
        assert result.suppressed_inline == 1


# ----------------------------------------------------------------------
# asyncio: event-loop hygiene
# ----------------------------------------------------------------------
class TestAsyncioHygiene:
    def test_time_sleep_in_async_def_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import time

            async def handler():
                time.sleep(1)
            """,
        )
        assert findings(result, "asyncio.blocking-call") == [
            (4, "asyncio.blocking-call")
        ]

    def test_asyncio_sleep_and_sync_def_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import asyncio
            import time

            async def handler():
                await asyncio.sleep(1)

            def worker():
                time.sleep(1)
            """,
        )
        assert result.diagnostics == []

    def test_open_in_async_def_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            async def dump(path, payload):
                with open(path, "w") as handle:
                    handle.write(payload)
            """,
        )
        assert findings(result, "asyncio.blocking-call") == [
            (2, "asyncio.blocking-call")
        ]

    def test_direct_pipeline_verb_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            async def ingest(pipeline, payload):
                pipeline.submit(payload)
                with pipeline.paused():
                    pass
            """,
        )
        assert findings(result, "asyncio.blocking-call") == [
            (2, "asyncio.blocking-call"),
            (3, "asyncio.blocking-call"),
        ]
        assert "run_in_executor" in result.diagnostics[0].message

    def test_pipeline_verb_behind_executor_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            async def ingest(loop, pipeline, payload):
                await loop.run_in_executor(None, pipeline.submit, payload)
            """,
        )
        assert result.diagnostics == []

    def test_nested_sync_def_may_block(self, tmp_path):
        # Nested sync defs typically run in executor threads, where
        # blocking is the point — the checker must not descend.
        result = run_on(
            tmp_path,
            """\
            import time

            async def ingest(loop):
                def blocking():
                    time.sleep(1)
                await loop.run_in_executor(None, blocking)
            """,
        )
        assert result.diagnostics == []

    def test_decorated_async_handler_still_checked(self, tmp_path):
        # Framework edge: decorators (even stacked ones) must not hide
        # an async handler from the hygiene rules.
        result = run_on(
            tmp_path,
            """\
            import functools
            import time

            def route(path):
                def wrap(func):
                    return func
                return wrap

            @route("/estimate")
            @functools.cache
            async def view(request):
                time.sleep(0.5)
            """,
        )
        assert findings(result, "asyncio.blocking-call") == [
            (12, "asyncio.blocking-call")
        ]

    def test_fire_and_forget_task_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import asyncio

            async def spawn(coro):
                asyncio.create_task(coro)
            """,
        )
        assert findings(result, "asyncio.untracked-task") == [
            (4, "asyncio.untracked-task")
        ]

    def test_retained_task_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import asyncio

            async def spawn(coro):
                task = asyncio.create_task(coro)
                await task
            """,
        )
        assert result.diagnostics == []


# ----------------------------------------------------------------------
# analysis: allow-audit meta rule
# ----------------------------------------------------------------------
class TestAllowAudit:
    def test_unknown_rule_id_in_allow_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            def f():
                # analysis: allow(guards.unguarded-acess) -- typo'd id
                return 1
            """,
        )
        assert findings(result, "analysis.unknown-allow") == [
            (2, "analysis.unknown-allow")
        ]
        assert "guards.unguarded-acess" in result.diagnostics[0].message

    def test_known_id_and_bare_family_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            def f():
                # analysis: allow(guards.unguarded-access) -- fine
                # analysis: allow(guards, purity.loop) -- also fine
                return 1
            """,
        )
        assert result.diagnostics == []
