"""Tests of ``tools/bench_snapshot.py`` and of the metrics-snapshot check.

The tool declares four BENCH sections (schema, measurement, bar) in one
table and checks every file by one path: the schema, then ``criteria``
recomputed from the file's own numbers with ``pass`` true. Covered here:
every committed ``BENCH_*.json`` passes, corruptions are rejected with
their path, a hand-edited ``"pass": true`` over failing numbers is
rejected for every section, and the ``serve`` row's driver runs end to
end against a real server. ``repro stats`` must refuse malformed metrics
snapshots with the problem, not a traceback.
"""

import asyncio
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.theory import smb_error_bound
from repro.core.tuning import optimal_threshold
from repro.obs import MetricsRegistry, snapshot

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "bench_snapshot", REPO_ROOT / "tools" / "bench_snapshot.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed(name: str) -> dict:
    return json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())


def miss_the_bar(name: str, document: dict) -> None:
    """Move ``document``'s numbers below its section's bar in place.

    Criteria entries that copy a number are edited with it, so only the
    recorded ``"pass": true`` is left disagreeing with the numbers.
    """
    if name == "kernels":
        document["recording"]["SMB"]["speedup"] = 1.0
        document["criteria"]["headline_speedups"]["SMB"] = 1.0
    elif name == "obs":
        document["modes"]["enabled"]["regression_vs_baseline"] = 0.2
    elif name == "serve":
        document["load"]["record"]["keys_per_second"] = 1.0
    else:
        document["sketches"]["HyperLogLog"]["ratio"] = 1.0
        document["criteria"]["register_family_ratios"]["HyperLogLog"] = 1.0


class TestBenchSnapshotSchema:
    def test_shipped_snapshot_validates(self, tool):
        paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert [path.name for path in paths] == [
            f"BENCH_{name}.json" for name in sorted(tool.SECTIONS)
        ]
        assert tool.main(["--check", *map(str, paths)]) == 0

    def test_corruptions_rejected_with_paths(self, tool):
        def set_path(document, keys, value):
            for key in keys[:-1]:
                document = document[key]
            document[keys[-1]] = value

        for name, keys, value, problem in (
            ("kernels", ["stream_items"], -5,
             "snapshot.stream_items: expected a non-negative number"),
            ("kernels", ["engine", 0, "pool_mdps"], float("nan"),
             "snapshot.engine[0].pool_mdps: expected a finite number"),
            ("wire", ["sketches", "HyperLogLog", "codec"], "magic",
             "snapshot.sketches.HyperLogLog.codec: expected one of"),
        ):
            document = committed(name)
            set_path(document, keys, value)
            problems = tool.check(name, document)
            assert any(p.startswith(problem) for p in problems), problems
        document = committed("kernels")
        del document["criteria"]["threshold"]
        (problem,) = tool.check("kernels", document)
        assert problem.startswith("snapshot.criteria: recorded"), problem

    def test_non_object_rejected(self, tool):
        for name in tool.SECTIONS:
            assert tool.check(name, []) != []

    @pytest.mark.parametrize("name", ["kernels", "obs", "serve", "wire"])
    def test_pass_over_numbers_below_the_bar_rejected(
        self, tool, name, tmp_path, capsys
    ):
        document = committed(name)
        miss_the_bar(name, document)
        assert document["criteria"]["pass"] is True
        (problem,) = tool.check(name, document)
        assert problem.startswith("snapshot.criteria: recorded"), problem
        path = tmp_path / f"BENCH_{name}.json"
        path.write_text(json.dumps(document))
        assert tool.main(["--check", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out
        # Recording the failure honestly is still not a pass.
        document["criteria"]["pass"] = False
        assert tool.check(name, document) == [
            f"snapshot.criteria.pass: the numbers miss the {name} bar"
        ]


def theorem3_tolerance(n: int, confidence: float) -> float:
    """Smallest δ Theorem 3 guarantees at cardinality n for the serve
    row's tenants (SMB, 5,000 bits, the default design cardinality)."""
    threshold = optimal_threshold(5_000, 1_000_000)
    for delta in np.linspace(0.005, 0.95, 400):
        if smb_error_bound(float(delta), float(n), 5_000, threshold) >= confidence:
            return float(delta)
    pytest.fail("no δ < 0.95 reaches the requested confidence")


def test_serve_driver_end_to_end(tool):
    load = asyncio.run(tool.drive_serve(
        tenants=2,
        connections=2,
        record_frames=6,
        batch_size=4096,
        estimate_requests=500,
    ))
    assert load["record"]["keys"] == 2 * 6 * 4096
    assert load["record"]["keys_per_second"] > 0
    assert load["estimate"]["requests"] == 2 * 500
    assert load["estimate"]["qps"] > 0
    latency = load["estimate"]["latency_seconds"]
    assert 0 <= latency["p50"] <= latency["p90"] <= latency["p99"]
    assert load["accuracy"]["max_relative_error"] <= theorem3_tolerance(
        6 * 4096 * 2 // 2, confidence=0.95
    )
    server = load["server"]
    assert server["generation"] == 1
    assert server["records_submitted"] == 2 * 6 * 4096
    assert server["records_submitted"] == (
        server["records_applied"] + server["records_dropped"]
    )
    errors: list[str] = []
    document = {"generated_by": "test", "python": "3", "numpy": "2",
                "estimator": "SMB", "load": load, "criteria": {}}
    tool._check(document, tool.SERVE_SCHEMA, "snapshot", errors)
    assert errors == []


def test_stats_rejects_malformed_snapshots_without_traceback(tmp_path):
    registry = MetricsRegistry()
    registry.counter("repro_total", help="a counter").inc(7)
    registry.histogram("repro_seconds", help="a histogram").observe(0.01)
    document = snapshot(registry)
    kinds = [family["type"] for family in document["metrics"]]
    histogram, counter = kinds.index("histogram"), kinds.index("counter")

    no_quantile = json.loads(json.dumps(document))
    del no_quantile["metrics"][histogram]["samples"][0]["p50"]
    summary = json.loads(json.dumps(document))
    summary["metrics"][counter]["type"] = "summary"
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    for broken, arguments, problem in (
        (no_quantile, [], f"snapshot.metrics[{histogram}].samples[0].p50"),
        (summary, ["--format", "prom"], f"snapshot.metrics[{counter}].type"),
    ):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(broken))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "stats", str(path), *arguments],
            env=environment, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert problem in result.stderr
