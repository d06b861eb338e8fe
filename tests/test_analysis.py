"""Tests for the static-analysis framework (repro.analysis).

Each rule gets fixture-based coverage: a bad snippet that must produce
the exact rule id at the exact line, and a good snippet that must stay
clean. On top of the per-rule fixtures, the suite asserts the inline
suppression mechanism and — the gating property — that the shipped
tree itself analyzes clean, with no baseline to hide findings in. The
estimator-contract properties are runtime tests in
``test_estimator_contract.py``.
"""

from __future__ import annotations

import dataclasses
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, all_rules
from repro.analysis.cli import analyze_main

REPO_ROOT = Path(__file__).resolve().parent.parent


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
# purity
# ----------------------------------------------------------------------
class TestPurity:
    def test_loop_in_record_plane_flagged_with_line(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            class Thing:
                def _record_plane(self, plane):
                    for value in plane.values:
                        self.record(value)
            """,
        )
        assert findings(result, "purity.loop") == [(3, "purity.loop")]

    def test_while_loop_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            def _record_plane(plane):
                while plane.size:
                    break
            """,
        )
        assert findings(result, "purity.loop") == [(2, "purity.loop")]

    def test_kernel_module_functions_are_hot(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            def scatter_thing(target, indices):
                for index in indices:
                    target[index] += 1
            """,
            filename="repro/kernels/custom.py",
        )
        assert findings(result, "purity.loop") == [(2, "purity.loop")]

    def test_scalar_conversion_over_subscript_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            def _record_plane(plane):
                first = int(plane.values[0])
                return first
            """,
        )
        assert findings(result, "purity.scalar-call") == [
            (2, "purity.scalar-call")
        ]

    def test_tolist_and_item_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            def _record_plane(plane):
                values = plane.values.tolist()
                scalar = plane.values.max().item()
                return values, scalar
            """,
        )
        assert findings(result, "purity.scalar-call") == [
            (2, "purity.scalar-call")
        ]
        assert findings(result, "purity.item-call") == [(3, "purity.item-call")]

    def test_scalar_reference_paths_out_of_scope(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            class Thing:
                def _record_batch(self, values):
                    for value in values.tolist():
                        self._record_u64(int(value))
            """,
        )
        assert result.ok

    def test_vectorized_record_plane_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            def _record_plane(plane):
                positions = plane.positions(7, 64)
                plane.apply(positions)
            """,
        )
        assert result.ok

    def test_metric_call_in_hot_loop_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            def _record_plane(plane):
                for chunk in plane.chunks:
                    counter.inc(chunk.size)
                    latency.observe(chunk.cost)
                    depth_gauge.set(chunk.depth)
            """,
        )
        assert findings(result, "purity.metric-in-loop") == [
            (3, "purity.metric-in-loop"),
            (4, "purity.metric-in-loop"),
            (5, "purity.metric-in-loop"),
        ]

    def test_metric_receiver_calls_need_metric_smell(self, tmp_path):
        # .set()/.update() on non-metric receivers are ordinary calls;
        # only metric-ish names (gauge/sink/...) are flagged in loops.
        result = run_on(
            tmp_path,
            """\
            def _record_plane(plane):
                for chunk in plane.chunks:
                    seen.update(chunk.keys)
                    self._obs_sink.update(chunk)
            """,
        )
        assert findings(result, "purity.metric-in-loop") == [
            (4, "purity.metric-in-loop")
        ]

    def test_metric_call_per_chunk_outside_loop_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            def _record_plane(plane):
                plane.apply()
                sink = plane.sink
                if sink is not None:
                    sink.update(plane)
            """,
        )
        assert result.ok


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_wallclock_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import time

            def stamp():
                return time.time()
            """,
        )
        assert findings(result, "determinism.wallclock") == [
            (4, "determinism.wallclock")
        ]

    def test_perf_counter_allowed(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import time

            def measure():
                return time.perf_counter()
            """,
        )
        assert result.ok

    def test_stdlib_random_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import random

            def draw():
                return random.random()
            """,
        )
        assert findings(result, "determinism.global-random") == [
            (4, "determinism.global-random")
        ]

    def test_legacy_np_random_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import numpy as np

            def draw(n):
                np.random.seed(0)
                return np.random.randint(0, 10, size=n)
            """,
        )
        assert findings(result, "determinism.legacy-np-random") == [
            (4, "determinism.legacy-np-random"),
            (5, "determinism.legacy-np-random"),
        ]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import numpy as np

            def draw():
                return np.random.default_rng().integers(0, 10)
            """,
        )
        assert findings(result, "determinism.unseeded-rng") == [
            (4, "determinism.unseeded-rng")
        ]

    def test_seeded_generator_api_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import numpy as np

            def draw(seed: int | np.random.Generator):
                generator = np.random.default_rng(seed)
                return generator.integers(0, 10)
            """,
        )
        assert result.ok

    def test_clock_into_counter_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import time

            def bill(counter):
                began = time.perf_counter()
                counter.inc(time.perf_counter() - began)
            """,
        )
        assert findings(result, "determinism.clock-into-metric") == [
            (5, "determinism.clock-into-metric")
        ]

    def test_clock_taint_propagates_through_assignments(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import time

            def bill(gauge):
                began = time.perf_counter()
                elapsed = time.perf_counter() - began
                doubled = elapsed * 2
                gauge.set(doubled)
            """,
        )
        assert findings(result, "determinism.clock-into-metric") == [
            (7, "determinism.clock-into-metric")
        ]

    def test_clock_into_observe_is_sanctioned(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import time

            def bill(histogram):
                began = time.perf_counter()
                histogram.observe(time.perf_counter() - began)
            """,
        )
        assert result.ok

    def test_untainted_counting_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import time

            def bill(counter, gauge, batch):
                began = time.perf_counter()
                counter.inc(batch.size)
                gauge.set(batch.depth)
                return time.perf_counter() - began
            """,
        )
        assert result.ok


# ----------------------------------------------------------------------
# dtype
# ----------------------------------------------------------------------
class TestDtype:
    def test_untyped_array_in_kernels_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import numpy as np

            def build(values):
                return np.array(values)
            """,
            filename="repro/kernels/build.py",
        )
        assert findings(result, "dtype.untyped-array") == [
            (4, "dtype.untyped-array")
        ]

    def test_astype_without_copy_flagged(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import numpy as np

            def _record_plane(plane):
                return np.minimum(plane.values, 3).astype(np.uint8)
            """,
        )
        assert findings(result, "dtype.astype-copy") == [
            (4, "dtype.astype-copy")
        ]

    def test_explicit_dtype_and_copy_clean(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import numpy as np

            def build(values):
                typed = np.array(values, dtype=np.uint64)
                return typed.astype(np.uint8, copy=False)
            """,
            filename="repro/hashing/build.py",
        )
        assert result.ok

    def test_non_hot_code_out_of_scope(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import numpy as np

            def report(values):
                return np.array(values).astype(np.float64)
            """,
        )
        assert result.ok


# ----------------------------------------------------------------------
# inline suppression
# ----------------------------------------------------------------------
class TestSuppression:
    LOOPY = """\
    def _record_plane(plane):
        # analysis: allow(purity.loop) -- bounded by shard count
        for part in plane.parts:
            part.apply()
    """

    def test_inline_allow_suppresses(self, tmp_path):
        result = run_on(tmp_path, self.LOOPY)
        assert result.ok
        assert result.suppressed_inline == 1

    def test_family_allow_covers_all_rules(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            def _record_plane(plane):
                # analysis: allow(purity) -- bounded, and tolist is tiny
                for value in plane.values.tolist():
                    plane.apply(value)
            """,
        )
        assert result.ok
        assert result.suppressed_inline == 2

    def test_multiline_comment_block_counts(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            def _record_plane(plane):
                # analysis: allow(purity.loop) -- a justification that
                # continues on a second comment line before the loop
                for part in plane.parts:
                    part.apply()
            """,
        )
        assert result.ok

    def test_unrelated_allow_does_not_suppress(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            def _record_plane(plane):
                # analysis: allow(dtype.astype-copy) -- wrong rule id
                for part in plane.parts:
                    part.apply()
            """,
        )
        assert findings(result, "purity.loop") == [(3, "purity.loop")]


# ----------------------------------------------------------------------
# framework surface
# ----------------------------------------------------------------------
class TestFramework:
    def test_rules_have_unique_ids_and_hints(self):
        rules = all_rules()
        identifiers = [rule.id for rule in rules]
        assert len(identifiers) == len(set(identifiers))
        assert len(identifiers) >= 15
        for rule in rules:
            family, __, name = rule.id.partition(".")
            assert family and name
            assert rule.summary and rule.hint

    def test_diagnostics_sorted_and_json_complete(self, tmp_path):
        result = run_on(
            tmp_path,
            """\
            import random


            def _record_plane(plane):
                for part in plane.parts:
                    part.apply(random.random())
            """,
        )
        ordered = [(d.line, d.col) for d in result.diagnostics]
        assert ordered == sorted(ordered)
        payload = dataclasses.asdict(result.diagnostics[0])
        assert set(payload) == {"path", "line", "col", "rule", "message", "hint"}
        assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------------
# the shipped tree is clean (the gating property)
# ----------------------------------------------------------------------
class TestShippedTree:
    def test_src_repro_analyzes_clean(self):
        result = analyze_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        assert result.ok, "\n".join(
            diag.format() for diag in result.diagnostics
        )

    def test_cli_exit_codes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert analyze_main(["src/repro"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

        bad = tmp_path / "bad.py"
        bad.write_text(
            "def _record_plane(plane):\n"
            "    for part in plane.parts:\n"
            "        part.apply()\n",
            encoding="utf-8",
        )
        assert analyze_main([str(bad)]) == 1
        assert "purity.loop" in capsys.readouterr().out

    def test_cli_list_rules(self, capsys):
        assert analyze_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in (
            "purity.",
            "determinism.",
            "dtype.",
            "guards.",
            "asyncio.",
            "analysis.",
        ):
            assert family in out


# ----------------------------------------------------------------------
# bench snapshot schema (tools/bench_snapshot.py)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bench_snapshot_module():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_snapshot", REPO_ROOT / "tools" / "bench_snapshot.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchSnapshotSchema:
    def test_shipped_snapshot_validates(self, bench_snapshot_module):
        path = REPO_ROOT / "BENCH_kernels.json"
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        assert bench_snapshot_module.validate_snapshot(snapshot) == []

    def test_corruptions_rejected_with_paths(self, bench_snapshot_module):
        path = REPO_ROOT / "BENCH_kernels.json"
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        snapshot["stream_items"] = -5
        snapshot["scatter"]["selected"] = "magic"
        del snapshot["criteria"]["threshold"]
        snapshot["engine"][0]["pool_mdps"] = float("nan")
        problems = bench_snapshot_module.validate_snapshot(snapshot)
        joined = "\n".join(problems)
        assert "snapshot.stream_items" in joined
        assert "snapshot.scatter.selected" in joined
        assert "snapshot.criteria: missing required key 'threshold'" in joined
        assert "snapshot.engine[0].pool_mdps" in joined

    def test_non_object_rejected(self, bench_snapshot_module):
        assert bench_snapshot_module.validate_snapshot([]) != []
