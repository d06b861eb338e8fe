"""Tests for the concurrency tier of repro.analysis.

Fixture coverage for the three concurrency checkers (guards, lockorder,
asyncio) plus the allow-audit meta rule: every rule gets a bad
snippet asserting the exact rule id at the exact line, and a good
snippet that must stay clean. On top of the per-rule fixtures the suite
covers the framework edges (guarded-by naming a nonexistent lock,
allow() with an unknown id, decorated async handlers), the
stale-baseline reporting/pruning, and the ``--changed`` CLI mode.
"""

from __future__ import annotations

import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.cli import analyze_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_on(tmp_path: Path, source: str, filename: str = "snippet.py", **kwargs):
    """Write ``source`` under ``tmp_path`` and analyze it."""
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return analyze_paths([target], root=tmp_path, **kwargs)


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
# lockorder: acquires-while-holding cycles
# ----------------------------------------------------------------------
class TestLockOrder:
    def test_two_lock_cycle_flagged_at_both_sites(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class AB:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._b:
                        with self._a:
                            pass
            """,
        )
        assert findings(result, "lockorder.cycle") == [
            (10, "lockorder.cycle"),
            (15, "lockorder.cycle"),
        ]
        assert "lock-order cycle" in result.diagnostics[0].message

    def test_consistent_order_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class AB:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
            """,
        )
        assert result.diagnostics == []

    def test_cycle_through_helper_call(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Helper:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def _take_b(self):
                    with self._b:
                        pass

                def one(self):
                    with self._a:
                        self._take_b()

                def two(self):
                    with self._b:
                        with self._a:
                            pass
            """,
        )
        flagged = findings(result, "lockorder.cycle")
        assert (14, "lockorder.cycle") in flagged  # the call site
        assert (18, "lockorder.cycle") in flagged

    def test_cross_class_cycle_via_composition(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Manager:
                def __init__(self):
                    self._mlock = threading.Lock()
                    self.pipeline = None

                def save(self):
                    with self._mlock:
                        pass

                def poke(self):
                    with self._mlock:
                        self.pipeline.touch()

            class Pipeline:
                def __init__(self):
                    self._plock = threading.Lock()
                    self.manager = Manager()

                def touch(self):
                    with self._plock:
                        pass

                def checkpoint(self):
                    with self._plock:
                        self.manager.save()
            """,
        )
        # Manager.poke resolves self.pipeline by the snake_case ->
        # CamelCase convention; Pipeline.checkpoint by direct
        # construction. Together they close _mlock <-> _plock.
        assert findings(result, "lockorder.cycle") == [
            (14, "lockorder.cycle"),
            (27, "lockorder.cycle"),
        ]

    def test_self_reacquire_is_a_self_loop(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Re:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """,
        )
        assert findings(result, "lockorder.cycle") == [
            (9, "lockorder.cycle")
        ]

    def test_composition_without_cycle_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import threading

            class Manager:
                def __init__(self):
                    self._mlock = threading.Lock()

                def save(self):
                    with self._mlock:
                        pass

            class Pipeline:
                def __init__(self):
                    self._plock = threading.Lock()
                    self.manager = Manager()

                def checkpoint(self):
                    with self._plock:
                        self.manager.save()
            """,
        )
        assert result.diagnostics == []


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
            """,
        )
        assert findings(result, "asyncio.blocking-call") == [
            (2, "asyncio.blocking-call")
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

    def test_unshielded_gate_await_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import asyncio

            class Server:
                async def _record_gated(self, gate, payload):
                    gate.acquire_read()
                    try:
                        self.apply(payload)
                    finally:
                        gate.release_read()

                async def handle(self, payload):
                    await self._record_gated(self.gate, payload)

                async def handle_safe(self, payload):
                    await asyncio.shield(self._record_gated(self.gate, payload))
            """,
        )
        assert findings(result, "asyncio.unshielded-gate") == [
            (12, "asyncio.unshielded-gate")
        ]
        assert "asyncio.shield" in result.diagnostics[0].message

    def test_gate_holder_set_is_project_wide(self, tmp_path):
        (tmp_path / "server.py").write_text(
            textwrap.dedent(
                """\
                class Server:
                    async def _drain_gated(self, gate):
                        gate.acquire_write()
                """
            ),
            encoding="utf-8",
        )
        (tmp_path / "cli.py").write_text(
            textwrap.dedent(
                """\
                async def main(server, gate):
                    await server._drain_gated(gate)
                """
            ),
            encoding="utf-8",
        )
        result = analyze_paths([tmp_path], root=tmp_path)
        gate = [
            d for d in result.diagnostics if d.rule == "asyncio.unshielded-gate"
        ]
        assert [(d.path, d.line) for d in gate] == [("cli.py", 2)]

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
                # analysis: allow(lockorder, purity.loop) -- also fine
                return 1
            """,
        )
        assert result.diagnostics == []


# ----------------------------------------------------------------------
# stale baselines
# ----------------------------------------------------------------------
class TestStaleBaseline:
    @staticmethod
    def _baseline(tmp_path: Path, suppressions: list[dict]) -> Path:
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps({"version": 1, "suppressions": suppressions}),
            encoding="utf-8",
        )
        return path

    def test_unused_entry_reported_as_stale(self, tmp_path):
        baseline = self._baseline(
            tmp_path,
            [{"path": "ghost.py", "rule": "purity.loop", "count": 2}],
        )
        result = run_on(
            tmp_path,
            """\
            def f():
                return 1
            """,
            baseline=baseline,
        )
        assert result.ok
        assert result.stale_baseline == [("ghost.py", "purity.loop")]

    def test_used_entry_is_not_stale(self, tmp_path):
        baseline = self._baseline(
            tmp_path,
            [{"path": "snippet.py", "rule": "purity.loop", "count": 1}],
        )
        result = run_on(
            tmp_path,
            """\
            def _record_plane(plane):
                for part in plane.parts:
                    part.apply(part)
            """,
            baseline=baseline,
        )
        assert result.ok
        assert result.suppressed_baseline == 1
        assert result.stale_baseline == []

    def test_cli_warns_and_write_baseline_prunes(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "clean.py"
        target.write_text("def f():\n    return 1\n", encoding="utf-8")
        baseline = self._baseline(
            tmp_path,
            [{"path": "ghost.py", "rule": "purity.loop", "count": 2}],
        )
        assert (
            analyze_main(["clean.py", "--baseline", str(baseline)]) == 0
        )
        captured = capsys.readouterr()
        assert "stale baseline entry ghost.py: purity.loop" in captured.err

        assert (
            analyze_main(
                [
                    "clean.py",
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                    str(baseline),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "pruned 1 stale baseline entry" in captured.out
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        assert payload["suppressions"] == []

    def test_shipped_tree_has_no_stale_entries(self):
        result = analyze_paths(
            [REPO_ROOT / "src" / "repro"],
            root=REPO_ROOT,
            baseline=REPO_ROOT / "tools" / "analysis_baseline.json",
        )
        assert result.ok
        assert result.stale_baseline == []


# ----------------------------------------------------------------------
# --changed (git-diff-scoped runs) and --summary
# ----------------------------------------------------------------------
def _git(repo: Path, *argv: str) -> None:
    subprocess.run(
        ["git", *argv],
        cwd=repo,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(repo),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


@pytest.fixture()
def git_repo(tmp_path: Path) -> Path:
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "keep.py").write_text("def f():\n    return 1\n")
    (repo / "oldname.py").write_text(
        '"""Docstring keeping rename similarity high."""\n'
        "\n"
        "def g(seed):\n"
        "    value = 40\n"
        "    other = 2\n"
        "    return value + other + seed\n"
    )
    (repo / "goner.py").write_text("def h():\n    return 3\n")
    (repo / "notes.txt").write_text("not python\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-qm", "init")
    return repo


class TestChangedMode:
    def test_changed_scopes_to_diff_with_rename_and_delete(
        self, git_repo, capsys, monkeypatch
    ):
        monkeypatch.chdir(git_repo)
        (git_repo / "keep.py").write_text(
            "def _record_plane(plane):\n"
            "    for part in plane.parts:\n"
            "        part.apply(part)\n"
        )
        _git(git_repo, "mv", "oldname.py", "newname.py")
        _git(git_repo, "rm", "-q", "goner.py")
        (git_repo / "notes.txt").write_text("still not python\n")
        _git(git_repo, "add", "-A")

        assert analyze_main(["--changed", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        # keep.py (modified) is analyzed and flagged; the rename is
        # followed to newname.py; the deleted file and the text file
        # are skipped.
        assert "keep.py:2" in out
        assert "purity.loop" in out
        assert "2 file(s)" in out
        assert "goner" not in out

    def test_changed_with_no_diff_exits_zero(
        self, git_repo, capsys, monkeypatch
    ):
        monkeypatch.chdir(git_repo)
        assert analyze_main(["--changed", "--no-baseline"]) == 0
        assert "no changed Python files" in capsys.readouterr().out

    def test_changed_excludes_explicit_paths(self, git_repo, monkeypatch):
        monkeypatch.chdir(git_repo)
        with pytest.raises(SystemExit):
            analyze_main(["keep.py", "--changed"])

    def test_changed_with_unknown_ref_errors(self, git_repo, monkeypatch):
        monkeypatch.chdir(git_repo)
        with pytest.raises(SystemExit):
            analyze_main(["--changed", "no-such-ref", "--no-baseline"])


class TestSummaryOutput:
    def test_summary_table_lists_per_rule_counts(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def _record_plane(plane):\n"
            "    for part in plane.parts:\n"
            "        part.apply(part)\n",
            encoding="utf-8",
        )
        summary = tmp_path / "summary.md"
        assert (
            analyze_main(
                [str(bad), "--no-baseline", "--summary", str(summary)]
            )
            == 1
        )
        capsys.readouterr()
        text = summary.read_text(encoding="utf-8")
        assert "| rule | findings |" in text
        assert "| `purity.loop` | 1 |" in text

    def test_clean_summary_and_json_rule_counts(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        clean = tmp_path / "clean.py"
        clean.write_text("def f():\n    return 1\n", encoding="utf-8")
        summary = tmp_path / "summary.md"
        assert (
            analyze_main(
                [
                    str(clean),
                    "--no-baseline",
                    "--format",
                    "json",
                    "--summary",
                    str(summary),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule_counts"] == {}
        assert payload["stale_baseline"] == []
        assert "✅ clean" in summary.read_text(encoding="utf-8")
