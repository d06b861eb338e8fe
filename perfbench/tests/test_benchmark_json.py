"""BENCHMARK.json keeps to its contract and names what the code prints."""

import json
import os
import re

import checks
import layers
import measure
import stack
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_shape_follows_the_contract():
    data = bench()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert data["paths"] == ["perfbench"]
    assert 1 <= data["run_seconds"] <= 60
    assert 2 <= len(data["workloads"]) <= 8
    names = [w["name"] for w in data["workloads"]]
    names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in data["end_to_end"] + data["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in data["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(data)) <= 64 * 1024


def test_workloads_and_end_to_end_metrics_match_the_code():
    data = bench()
    assert [w["name"] for w in data["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in data["end_to_end"]} == {
        name: workloads.UNITS[name] for name in workloads.BOUNDED}


def test_per_layer_metrics_match_what_a_traced_run_prints(tmp_path):
    rec = tracing.Recorder()
    rec.wrap("core.smb.record_plane", lambda: None)()
    path = str(tmp_path / "spans.npz")
    rec.dump(path)
    ones = {name: 1.0 for name in workloads.UNITS}
    result = workloads.PassResult(
        ones, {}, {"p99": 1.0}, {"rel_error_pct": 1.0, "export_bytes": 1.0},
        checks.Tally(), [path], {})
    printed = layers.per_layer(result, result)
    printed.update(stack.baseline(1, 1))
    printed.update(measure.host_metrics(0.0, 0.1))
    assert {name: unit for name, (__, unit) in printed.items()} == {
        m["name"]: m["unit"] for m in bench()["per_layer"]}
