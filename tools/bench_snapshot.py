"""One-shot performance snapshot of the kernels layer → BENCH_kernels.json.

Runs the recording/query microbenchmarks programmatically — the same
operations ``benchmarks/bench_substrates.py``, ``bench_kernels.py`` and
``bench_engine_scaling.py`` time under pytest-benchmark — and writes a
single machine-readable snapshot at the repo root so the numbers travel
with the PR (and as a CI artifact).

Sections of the snapshot:

- ``recording`` — per-estimator throughput (Mdps) of the vectorized
  plane path on a 10^6-item distinct stream, next to the base-class
  scalar reference loop (timed on a slice; pure Python is ~100× slower)
  and the resulting speedup. The acceptance criterion of the kernels PR
  is ``speedup >= 5`` for SMB, MRB and at least one HLL variant.
- ``query`` — per-estimator query latency after the 10^6-item load.
- ``scatter`` — both scatter strategies head to head on 10^6 updates.
- ``plane`` — hash-plane prefetch / gather / partition costs per chunk.
- ``engine`` — ShardPool ingest throughput vs shard count.

Usage (from the repo root)::

    PYTHONPATH=src python tools/bench_snapshot.py [--out BENCH_kernels.json]

``REPRO_SCALE`` scales the stream sizes down for smoke runs, exactly as
it does for the experiment harness.

The module also owns two observability-related validators/writers:

- ``--check-metrics FILE`` validates a ``repro.obs`` JSON metrics
  snapshot (as written by ``repro engine --metrics-out``) against
  :func:`validate_metrics_snapshot` — used by the CI obs job;
- ``--obs-out BENCH_obs.json`` measures SMB recording throughput with
  metrics disabled and enabled against the ``BENCH_kernels.json``
  baseline and records both modes plus the overhead criteria
  (disabled < 2% regression, enabled < 5%), which
  ``tests/test_obs.py`` asserts as the overhead guard.

And the serving-layer pair:

- ``--serve-out BENCH_serve.json`` starts an in-process
  :class:`repro.serve.CardinalityServer` on an ephemeral port, drives
  it with :func:`repro.serve.loadgen.run_load` over real sockets, and
  records the wire-level RECORD/ESTIMATE throughput next to the serve
  PR's acceptance bars (ESTIMATE >= 50k QPS, RECORD >= 1M keys/s);
- ``--check-serve FILE`` validates such a snapshot against
  :func:`validate_serve_snapshot` — used by the CI serve-smoke job.

And the wire-format pair:

- ``--wire-out BENCH_wire.json`` encodes every wire-registry sketch at
  a realistic fill through :func:`repro.wire.encode_sketch`, recording
  raw vs frame bytes, the selected codec, the compression ratio and
  encode/decode throughput, plus the wire PR's acceptance criterion
  (compact frames beat raw ``to_bytes`` by >= 1.2x on the >= 4-bit
  register families);
- ``--check-wire FILE`` validates such a snapshot and re-enforces the
  register-family compression bar — used by the CI wire-bench job.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.runner import (
    ALL_ESTIMATORS,
    make_estimator,
    mdps,
    repro_scale,
    time_call,
    time_recording,
)
from repro.engine import ShardPool
from repro.kernels import (
    HashPlane,
    geometric_request,
    positions_request,
    scatter_max,
    uniform_request,
)
from repro.kernels import scatter as scatter_module
from repro.engine.partition import Partitioner
from repro.streams import distinct_items

MEMORY_BITS = 5_000
HEADLINE = ("SMB", "MRB", "HLL++")  # the acceptance-criterion trio


# ----------------------------------------------------------------------
# Snapshot schema
# ----------------------------------------------------------------------
# BENCH_kernels.json is consumed by humans diffing PRs and by the CI
# artifact pipeline; a malformed snapshot (missing section, NaN timing,
# negative throughput) should fail the writer loudly, not skew a later
# comparison silently. The schema language is deliberately tiny:
#
#   str / bool                 exact type
#   "number" / "count"         finite float-or-int; count also >= 0
#   "speedup"                  number or null (scalar reference may be 0)
#   {"__keys__": subschema}    dict with arbitrary keys, uniform values
#   {fixed: subschema, ...}    dict with exactly these required keys
#   [subschema]                non-empty list, uniform element schema
#   ("a", "b")                 string enum

_RECORDING_ROW = {
    "batch_mdps": "count",
    "scalar_mdps": "count",
    "speedup": "speedup",
}

SNAPSHOT_SCHEMA = {
    "generated_by": str,
    "python": str,
    "numpy": str,
    "stream_items": "count",
    "scalar_reference_items": "count",
    "recording": {"__keys__": _RECORDING_ROW},
    "query": {"__keys__": {"seconds": "count"}},
    "scatter": {
        "max_ufunc_at_ms": "count",
        "max_reduceat_ms": "count",
        "selected": ("ufunc_at", "reduceat"),
    },
    "plane": {
        "chunk_items": "count",
        "prefetch_ms": "count",
        "split_8_shards_ms": "count",
        "memoized_reread_us": "count",
        "footprint_bytes_per_item": "count",
    },
    "engine": [
        {"estimator": str, "shards": "count", "pool_mdps": "count"}
    ],
    "criteria": {
        "headline_speedups": {"__keys__": "speedup"},
        "threshold": "number",
        "pass": bool,
    },
}


def _check(value, schema, path: str, errors: list[str]) -> None:
    import math

    def fail(expected: str) -> None:
        errors.append(f"{path}: expected {expected}, got {value!r}")

    if schema is str or schema is bool:
        if not isinstance(value, schema) or (
            schema is str and not value.strip()
        ):
            fail(schema.__name__)
    elif schema in ("number", "count", "speedup"):
        if schema == "speedup" and value is None:
            return
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            fail("a finite number")
        elif schema == "count" and value < 0:
            fail("a non-negative number")
    elif isinstance(schema, tuple):
        if value not in schema:
            fail(f"one of {schema}")
    elif isinstance(schema, list):
        if not isinstance(value, list) or not value:
            fail("a non-empty list")
            return
        for i, element in enumerate(value):
            _check(element, schema[0], f"{path}[{i}]", errors)
    elif isinstance(schema, dict):
        if not isinstance(value, dict):
            fail("an object")
            return
        if "__keys__" in schema:
            if not value:
                fail("a non-empty object")
            for key, element in value.items():
                _check(element, schema["__keys__"], f"{path}.{key}", errors)
            return
        for key in schema.keys() - value.keys():
            errors.append(f"{path}: missing required key {key!r}")
        for key in value.keys() - schema.keys():
            errors.append(f"{path}: unexpected key {key!r}")
        for key in schema.keys() & value.keys():
            _check(value[key], schema[key], f"{path}.{key}", errors)
    else:  # pragma: no cover - schema author error
        raise TypeError(f"bad schema node at {path}: {schema!r}")


def validate_snapshot(snapshot: object) -> list[str]:
    """Validate a snapshot dict; returns a list of problems (empty = ok)."""
    errors: list[str] = []
    _check(snapshot, SNAPSHOT_SCHEMA, "snapshot", errors)
    return errors


# ----------------------------------------------------------------------
# repro.obs metrics-snapshot schema (``--check-metrics``)
# ----------------------------------------------------------------------
# The JSON document written by ``repro engine --metrics-out`` (and by
# ``repro.obs.render.write_snapshot`` generally) is heterogeneous:
# counter/gauge samples carry ``value`` while histogram samples carry
# ``count``/``sum``/``buckets``/quantiles, so the shape depends on the
# family's ``type``. That dispatch lives in a dedicated walker which
# reuses ``_check`` for the uniform leaves.

_METRIC_KINDS = ("counter", "gauge", "histogram")


def _check_metric_family(family: object, path: str, errors: list[str]) -> None:
    """Validate one family entry of a metrics snapshot."""
    if not isinstance(family, dict):
        errors.append(f"{path}: expected an object, got {family!r}")
        return
    for key in {"name", "type", "help", "label_names", "samples"} - family.keys():
        errors.append(f"{path}: missing required key {key!r}")
    _check(family.get("name"), str, f"{path}.name", errors)
    if not isinstance(family.get("help"), str):
        errors.append(f"{path}.help: expected a string")
    kind = family.get("type")
    if kind not in _METRIC_KINDS:
        errors.append(
            f"{path}.type: expected one of {_METRIC_KINDS}, got {kind!r}"
        )
        return
    label_names = family.get("label_names")
    if not isinstance(label_names, list) or any(
        not isinstance(name, str) for name in label_names
    ):
        errors.append(f"{path}.label_names: expected a list of strings")
        label_names = []
    samples = family.get("samples")
    if not isinstance(samples, list):
        errors.append(f"{path}.samples: expected a list")
        return
    for i, sample in enumerate(samples):
        _check_metric_sample(
            sample, kind, label_names, f"{path}.samples[{i}]", errors
        )


def _check_metric_sample(
    sample: object,
    kind: str,
    label_names: list[str],
    path: str,
    errors: list[str],
) -> None:
    """Validate one sample: labels plus the kind-dependent payload."""
    if not isinstance(sample, dict):
        errors.append(f"{path}: expected an object, got {sample!r}")
        return
    labels = sample.get("labels")
    if (
        not isinstance(labels, dict)
        or set(labels) != set(label_names)
        or any(not isinstance(v, str) for v in labels.values())
    ):
        errors.append(
            f"{path}.labels: expected string labels for {tuple(label_names)}"
        )
    if kind != "histogram":
        _check(sample.get("value"), "number", f"{path}.value", errors)
        return
    _check(sample.get("count"), "count", f"{path}.count", errors)
    for key in ("sum", "p50", "p90", "p99"):
        _check(sample.get(key), "number", f"{path}.{key}", errors)
    buckets = sample.get("buckets")
    if not isinstance(buckets, list) or not buckets:
        errors.append(f"{path}.buckets: expected a non-empty list")
        return
    previous = -1.0
    for j, bucket in enumerate(buckets):
        bpath = f"{path}.buckets[{j}]"
        if (
            not isinstance(bucket, list)
            or len(bucket) != 2
            or not isinstance(bucket[0], str)
        ):
            errors.append(f"{bpath}: expected a [bound, cumulative] pair")
            continue
        _check(bucket[1], "count", f"{bpath}[1]", errors)
        if isinstance(bucket[1], (int, float)) and not isinstance(
            bucket[1], bool
        ):
            if bucket[1] < previous:
                errors.append(f"{bpath}: cumulative count decreased")
            previous = bucket[1]
    last = buckets[-1]
    if isinstance(last, list) and last and last[0] != "+Inf":
        errors.append(f"{path}.buckets: last bound must be '+Inf'")


def validate_metrics_snapshot(document: object) -> list[str]:
    """Validate a ``repro.obs`` metrics snapshot; returns problems."""
    errors: list[str] = []
    if not isinstance(document, dict):
        return [f"snapshot: expected an object, got {document!r}"]
    if document.get("generated_by") != "repro.obs":
        errors.append(
            "snapshot.generated_by: expected 'repro.obs', got "
            f"{document.get('generated_by')!r}"
        )
    metrics = document.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        errors.append("snapshot.metrics: expected a non-empty list")
        metrics = []
    for i, family in enumerate(metrics):
        _check_metric_family(family, f"snapshot.metrics[{i}]", errors)
    run = document.get("run")
    if run is not None:
        if not isinstance(run, dict) or not run:
            errors.append("snapshot.run: expected a non-empty object")
        else:
            for key, value in run.items():
                _check(value, "number", f"snapshot.run.{key}", errors)
    for key in sorted(document.keys() - {"generated_by", "metrics", "run"}):
        errors.append(f"snapshot: unexpected key {key!r}")
    return errors


# ----------------------------------------------------------------------
# Wire-format snapshot (``--wire-out`` → BENCH_wire.json)
# ----------------------------------------------------------------------

_WIRE_ROW = {
    "codec": ("raw", "huffman", "zrle"),
    "raw_bytes": "count",
    "frame_bytes": "count",
    "ratio": "count",
    "encode_ms": "count",
    "decode_ms": "count",
}

WIRE_SNAPSHOT_SCHEMA = {
    "generated_by": str,
    "python": str,
    "numpy": str,
    "stream_items": "count",
    "memory_bits": "count",
    "sketches": {"__keys__": _WIRE_ROW},
    "criteria": {
        "register_family_ratios": {"__keys__": "count"},
        "min_register_family_ratio": "number",
        "pass": bool,
    },
}

#: The wire PR's acceptance bar: entropy coding must beat raw
#: ``to_bytes`` on the >= 4-bit register families at realistic fills.
MIN_REGISTER_FAMILY_RATIO = 1.2


def validate_wire_snapshot(snapshot: object) -> list[str]:
    """Validate a BENCH_wire.json dict; returns a list of problems."""
    errors: list[str] = []
    _check(snapshot, WIRE_SNAPSHOT_SCHEMA, "snapshot", errors)
    return errors


def check_wire_bars(snapshot: dict) -> list[str]:
    """Schema plus the register-family compression bar; returns problems."""
    problems = validate_wire_snapshot(snapshot)
    if problems:
        return problems
    criteria = snapshot["criteria"]
    ratios = criteria["register_family_ratios"]
    if not ratios:
        problems.append("criteria.register_family_ratios is empty")
    for name, ratio in sorted(ratios.items()):
        if ratio < MIN_REGISTER_FAMILY_RATIO:
            problems.append(
                f"{name}: compression ratio {ratio} < "
                f"{MIN_REGISTER_FAMILY_RATIO} acceptance bar"
            )
    if bool(criteria["pass"]) != (not problems):
        problems.append(
            f"criteria.pass is {criteria['pass']} but the checker "
            f"derives {not problems}"
        )
    return problems


def _wire_zoo(memory_bits: int, stream_items: int) -> dict:
    """Loaded instances of every wire-frameable class at realistic fill."""
    from repro.estimators import RefinedHyperLogLog
    from repro.estimators.registry import sketch_registry

    items = distinct_items(stream_items, seed=5)
    zoo = {}
    for name, cls in sorted(sketch_registry("wire").items()):
        if cls is ShardPool:
            sketch = ShardPool.of("HLL", memory_bits, 4, seed=3)
        elif cls is RefinedHyperLogLog:
            sketch = cls(memory_bits, seed=3)
            sketch.learn(distinct_items(5_000, seed=9), 5_000)
        elif name == "MultiResolutionBitmap":
            sketch = cls(max(memory_bits // 24, 64), 12, seed=3)
        elif name == "SelfMorphingBitmap":
            sketch = cls(memory_bits, threshold=memory_bits // 12, seed=3)
        elif name == "KMinValues":
            sketch = cls(512, seed=3)
        else:
            sketch = cls(memory_bits, seed=3)
        sketch.record_many(items)
        zoo[name] = sketch
    return zoo


def bench_wire(memory_bits: int, stream_items: int) -> dict:
    """Per-sketch frame size and codec throughput rows."""
    from repro.wire import decode_sketch, encode_sketch, frame_info

    rows = {}
    for name, sketch in _wire_zoo(memory_bits, stream_items).items():
        frame = encode_sketch(sketch)
        info = frame_info(frame)
        rows[name] = {
            "codec": info.codec,
            "raw_bytes": info.raw_bytes,
            "frame_bytes": info.frame_bytes,
            "ratio": round(info.ratio, 3),
            "encode_ms": round(_time(lambda: encode_sketch(sketch)) * 1e3, 3),
            "decode_ms": round(_time(lambda: decode_sketch(frame)) * 1e3, 3),
        }
    return rows


def _write_wire_snapshot(out: Path) -> int:
    """Benchmark the compact wire format and write BENCH_wire.json."""
    from repro.estimators.registry import sketch_registry
    from repro.estimators.state import REGISTERS

    scale = repro_scale(1.0)
    stream_items = max(4_000, int(20_000 * scale))
    memory_bits = 50_000
    sketches = bench_wire(memory_bits, stream_items)

    states = {name: cls.state for name, cls in sketch_registry("wire").items()}
    ratios = {
        name: row["ratio"]
        for name, row in sketches.items()
        if states[name] is not None and states[name].family == REGISTERS
    }
    snapshot = {
        "generated_by": "tools/bench_snapshot.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stream_items": stream_items,
        "memory_bits": memory_bits,
        "sketches": sketches,
        "criteria": {
            "register_family_ratios": ratios,
            "min_register_family_ratio": MIN_REGISTER_FAMILY_RATIO,
            "pass": bool(ratios)
            and all(
                ratio >= MIN_REGISTER_FAMILY_RATIO
                for ratio in ratios.values()
            ),
        },
    }

    problems = validate_wire_snapshot(snapshot)
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        print("refusing to write a snapshot that fails its own schema")
        return 1

    out.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {out}")
    for name, row in sorted(sketches.items()):
        print(
            f"  {name:24s} {row['frame_bytes']:>8,d}B / "
            f"{row['raw_bytes']:>8,d}B raw  "
            f"({row['ratio']:.2f}x, {row['codec']})"
        )
    if not snapshot["criteria"]["pass"]:
        print(
            "WARNING: register-family compression below the "
            f"{MIN_REGISTER_FAMILY_RATIO}x acceptance bar"
        )
    return 0


# ----------------------------------------------------------------------
# Observability overhead snapshot (``--obs-out`` → BENCH_obs.json)
# ----------------------------------------------------------------------

_OBS_MODE_ROW = {
    "mdps": "count",
    "seconds": "count",
    "regression_vs_baseline": "number",
}

OBS_SNAPSHOT_SCHEMA = {
    "generated_by": str,
    "python": str,
    "numpy": str,
    "stream_items": "count",
    "estimator": str,
    "baseline_mdps": "count",
    "baseline_source": str,
    "modes": {"disabled": _OBS_MODE_ROW, "enabled": _OBS_MODE_ROW},
    "criteria": {
        "disabled_max_regression": "number",
        "enabled_max_regression": "number",
        "pass": bool,
    },
}


def validate_obs_snapshot(snapshot: object) -> list[str]:
    """Validate a BENCH_obs.json dict; returns a list of problems."""
    errors: list[str] = []
    _check(snapshot, OBS_SNAPSHOT_SCHEMA, "snapshot", errors)
    return errors


# ----------------------------------------------------------------------
# Serving-layer snapshot (``--serve-out`` → BENCH_serve.json)
# ----------------------------------------------------------------------
# The ``load`` section is the result document of
# ``repro.serve.loadgen.run_load`` verbatim; the wrapper adds host
# provenance and the serve PR's acceptance criteria.

SERVE_SNAPSHOT_SCHEMA = {
    "generated_by": str,
    "python": str,
    "numpy": str,
    "estimator": str,
    "load": {
        "config": {
            "tenants": "count",
            "connections": "count",
            "record_frames_per_connection": "count",
            "batch_size": "count",
            "estimate_requests_per_connection": "count",
            "pipeline_window": "count",
        },
        "record": {
            "keys": "count",
            "seconds": "count",
            "keys_per_second": "count",
        },
        "estimate": {
            "requests": "count",
            "seconds": "count",
            "qps": "count",
            "latency_seconds": {
                "p50": "count",
                "p90": "count",
                "p99": "count",
            },
        },
        "accuracy": {"tenants": "count", "max_relative_error": "count"},
        "server": {
            "generation": "count",
            "records_submitted": "count",
            "records_applied": "count",
            "records_dropped": "count",
        },
    },
    "criteria": {
        "min_estimate_qps": "number",
        "min_record_keys_per_second": "number",
        "pass": bool,
    },
}

MIN_ESTIMATE_QPS = 50_000.0
MIN_RECORD_KEYS_PER_SECOND = 1_000_000.0


def validate_serve_snapshot(snapshot: object) -> list[str]:
    """Validate a BENCH_serve.json dict; returns a list of problems."""
    errors: list[str] = []
    _check(snapshot, SERVE_SNAPSHOT_SCHEMA, "snapshot", errors)
    return errors


def bench_serve(scale: float) -> dict:
    """Socket-level load run against a fresh in-process server."""
    import asyncio
    import tempfile

    from repro.engine.recovery import CheckpointManager
    from repro.serve import CardinalityServer, TenantConfig
    from repro.serve.loadgen import run_load

    record_frames = max(8, int(64 * scale))
    estimate_requests = max(500, int(5000 * scale))

    async def drive() -> dict:
        with tempfile.TemporaryDirectory() as scratch:
            server = CardinalityServer(
                TenantConfig(estimator="SMB", memory_bits=MEMORY_BITS),
                checkpoint_manager=CheckpointManager(
                    Path(scratch) / "ckpts", sync_directory=False
                ),
            )
            host, port = await server.start("127.0.0.1", 0)
            try:
                return await run_load(
                    host,
                    port,
                    tenants=4,
                    connections=4,
                    record_frames=record_frames,
                    batch_size=8192,
                    estimate_requests=estimate_requests,
                )
            finally:
                await server.stop()

    return asyncio.run(drive())


def _write_serve_snapshot(out: Path) -> int:
    """Benchmark the serving layer and write BENCH_serve.json."""
    load = bench_serve(repro_scale(1.0))
    snapshot = {
        "generated_by": "tools/bench_snapshot.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "estimator": "SMB",
        "load": load,
        "criteria": {
            "min_estimate_qps": MIN_ESTIMATE_QPS,
            "min_record_keys_per_second": MIN_RECORD_KEYS_PER_SECOND,
            "pass": (
                load["estimate"]["qps"] >= MIN_ESTIMATE_QPS
                and load["record"]["keys_per_second"]
                >= MIN_RECORD_KEYS_PER_SECOND
            ),
        },
    }

    problems = validate_serve_snapshot(snapshot)
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        print("refusing to write a snapshot that fails its own schema")
        return 1

    out.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {out}")
    print(
        f"  record   {load['record']['keys_per_second']:>14,.0f} keys/s "
        f"(bar {MIN_RECORD_KEYS_PER_SECOND:,.0f})"
    )
    print(
        f"  estimate {load['estimate']['qps']:>14,.0f} qps    "
        f"(bar {MIN_ESTIMATE_QPS:,.0f}), "
        f"p99 {load['estimate']['latency_seconds']['p99'] * 1e3:.2f} ms"
    )
    print(
        "  accuracy max relative error "
        f"{load['accuracy']['max_relative_error']:.4f}"
    )
    if not snapshot["criteria"]["pass"]:
        print("WARNING: serving throughput below the acceptance bars")
    return 0


def bench_obs(items: np.ndarray, baseline_mdps: float) -> dict:
    """SMB recording throughput with metrics disabled vs enabled.

    ``disabled`` runs exactly the table-4 recording benchmark with the
    default ``NullRegistry`` in place; ``enabled`` installs a live
    ``MetricsRegistry`` and attaches an ``SMBObserver`` sink before
    recording. Both are best-of-5 single-pass timings over fresh
    estimators, compared against the ``BENCH_kernels.json`` SMB batch
    throughput (the pre-observability baseline).
    """
    from repro.obs import MetricsRegistry, SMBObserver, set_registry

    design = max(items.size, 1_000_000)
    repeats = 5

    def measure(attach: bool) -> float:
        best = float("inf")
        for seed in range(repeats):
            warmup = make_estimator("SMB", MEMORY_BITS, design, seed=1)
            estimator = make_estimator("SMB", MEMORY_BITS, design, seed=0)
            if attach:
                registry = MetricsRegistry()
                previous = set_registry(registry)
                warmup.attach_metrics(SMBObserver(registry, shard="warmup"))
                estimator.attach_metrics(SMBObserver(registry))
            try:
                best = min(best, time_recording(estimator, items, warmup=warmup))
            finally:
                if attach:
                    set_registry(previous)
        return best

    modes = {}
    for mode, attach in (("disabled", False), ("enabled", True)):
        seconds = measure(attach)
        rate = mdps(items.size, seconds)
        modes[mode] = {
            "mdps": round(rate, 3),
            "seconds": round(seconds, 6),
            "regression_vs_baseline": round(1.0 - rate / baseline_mdps, 4),
        }
    return modes


def _time(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn`` in seconds (noise-resistant)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_recording(items: np.ndarray, scalar_items: np.ndarray) -> dict:
    """Plane path vs scalar reference loop, per estimator."""
    out = {}
    for name in ALL_ESTIMATORS:
        design = max(items.size, 1_000_000)
        warmup = make_estimator(name, MEMORY_BITS, design, seed=1)
        batch_seconds = time_recording(
            make_estimator(name, MEMORY_BITS, design, seed=0),
            items,
            warmup=warmup,
        )
        scalar = make_estimator(name, MEMORY_BITS, design, seed=0)
        start = time.perf_counter()
        scalar._record_batch(scalar_items)
        scalar_seconds = time.perf_counter() - start
        batch = mdps(items.size, batch_seconds)
        reference = mdps(scalar_items.size, scalar_seconds)
        out[name] = {
            "batch_mdps": round(batch, 3),
            "scalar_mdps": round(reference, 3),
            "speedup": round(batch / reference, 1) if reference else None,
        }
    return out


def bench_query(items: np.ndarray) -> dict:
    out = {}
    for name in ALL_ESTIMATORS:
        estimator = make_estimator(
            name, MEMORY_BITS, max(items.size, 1_000_000), seed=0
        )
        estimator.record_many(items)
        out[name] = {"seconds": time_call(estimator.query)}
    return out


def bench_scatter(n: int) -> dict:
    rng = np.random.default_rng(5)
    idx = rng.integers(0, 4096, size=n, dtype=np.uint64)
    values = rng.integers(1, 32, size=n).astype(np.uint8)
    out = {}
    saved = scatter_module._FAST_UFUNC_AT
    try:
        for label, fast in (("ufunc_at", True), ("reduceat", False)):
            scatter_module._FAST_UFUNC_AT = fast
            target = np.zeros(4096, dtype=np.uint8)
            out[f"max_{label}_ms"] = round(
                _time(lambda: scatter_max(target, idx, values)) * 1e3, 3
            )
    finally:
        scatter_module._FAST_UFUNC_AT = saved
    out["selected"] = "ufunc_at" if saved else "reduceat"
    return out


def bench_plane(items: np.ndarray) -> dict:
    requests = (
        uniform_request(1),
        geometric_request(2),
        positions_request(3, MEMORY_BITS),
    )

    def prefetch():
        HashPlane(items).prefetch(requests)

    def split():
        plane = HashPlane(items)
        plane.prefetch(requests)
        Partitioner(8, seed=3).split_plane(plane)

    plane = HashPlane(items)
    plane.prefetch(requests)
    array_of = {
        "uniform": lambda r: plane.uniform(r[1]),
        "geometric": lambda r: plane.geometric(r[1]),
        "positions": lambda r: plane.positions(r[1], r[2]),
    }
    footprint = 8 + sum(  # the canonical values array, plus each plane
        array_of[request[0]](request).itemsize
        for request in plane.materialized()
    )
    return {
        "chunk_items": int(items.size),
        "prefetch_ms": round(_time(prefetch) * 1e3, 3),
        "split_8_shards_ms": round(_time(split) * 1e3, 3),
        "memoized_reread_us": round(_time(lambda: plane.uniform(1)) * 1e6, 3),
        "footprint_bytes_per_item": footprint,
    }


def bench_engine(items: np.ndarray) -> list[dict]:
    rows = []
    for name in ("SMB", "HLL++"):
        for num_shards in (1, 4, 8):
            pool = ShardPool.of(
                name,
                MEMORY_BITS * num_shards,
                num_shards,
                design_cardinality=max(items.size, 1_000_000) * num_shards,
                seed=0,
            )
            warmup = ShardPool.of(
                name,
                MEMORY_BITS * num_shards,
                num_shards,
                design_cardinality=max(items.size, 1_000_000) * num_shards,
                seed=1,
            )
            seconds = time_recording(pool, items, warmup=warmup)
            rows.append(
                {
                    "estimator": name,
                    "shards": num_shards,
                    "pool_mdps": round(mdps(items.size, seconds), 3),
                }
            )
    return rows


def _write_obs_snapshot(out: Path) -> int:
    """Measure obs overhead against BENCH_kernels.json and write it."""
    kernels_path = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
    kernels = json.loads(kernels_path.read_text())
    baseline_mdps = kernels["recording"]["SMB"]["batch_mdps"]

    scale = repro_scale(1.0)
    stream_items = max(10_000, int(1_000_000 * scale))
    items = distinct_items(stream_items, seed=9)
    modes = bench_obs(items, baseline_mdps)

    snapshot = {
        "generated_by": "tools/bench_snapshot.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stream_items": stream_items,
        "estimator": "SMB",
        "baseline_mdps": baseline_mdps,
        "baseline_source": "BENCH_kernels.json recording.SMB.batch_mdps",
        "modes": modes,
        "criteria": {
            "disabled_max_regression": 0.02,
            "enabled_max_regression": 0.05,
            "pass": (
                modes["disabled"]["regression_vs_baseline"] < 0.02
                and modes["enabled"]["regression_vs_baseline"] < 0.05
            ),
        },
    }

    problems = validate_obs_snapshot(snapshot)
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        print("refusing to write a snapshot that fails its own schema")
        return 1

    out.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {out}")
    for mode, row in modes.items():
        print(
            f"  {mode:8s} {row['mdps']:.3f} Mdps "
            f"({row['regression_vs_baseline']:+.2%} vs baseline)"
        )
    if not snapshot["criteria"]["pass"]:
        print("WARNING: observability overhead above the 2%/5% thresholds")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_kernels.json"),
        help="output path (default: BENCH_kernels.json at the repo root)",
    )
    parser.add_argument(
        "--check",
        metavar="FILE",
        help="validate an existing snapshot against the schema and exit",
    )
    parser.add_argument(
        "--check-metrics",
        metavar="FILE",
        help=(
            "validate a repro.obs metrics snapshot (from "
            "`repro engine --metrics-out`) and exit"
        ),
    )
    parser.add_argument(
        "--obs-out",
        metavar="FILE",
        help=(
            "measure metrics-disabled vs metrics-enabled SMB recording "
            "throughput and write the overhead snapshot (BENCH_obs.json), "
            "then exit"
        ),
    )
    parser.add_argument(
        "--serve-out",
        metavar="FILE",
        help=(
            "benchmark the network serving layer against an in-process "
            "server and write the snapshot (BENCH_serve.json), then exit"
        ),
    )
    parser.add_argument(
        "--check-serve",
        metavar="FILE",
        help="validate a BENCH_serve.json snapshot and exit",
    )
    parser.add_argument(
        "--wire-out",
        metavar="FILE",
        help=(
            "benchmark the compact sketch wire format and write the "
            "snapshot (BENCH_wire.json), then exit"
        ),
    )
    parser.add_argument(
        "--check-wire",
        metavar="FILE",
        help=(
            "validate a BENCH_wire.json snapshot and enforce the "
            "register-family compression bar, then exit"
        ),
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        problems = validate_snapshot(json.loads(Path(args.check).read_text()))
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        print(f"{args.check}: {'INVALID' if problems else 'ok'}")
        return 1 if problems else 0

    if args.check_metrics is not None:
        problems = validate_metrics_snapshot(
            json.loads(Path(args.check_metrics).read_text())
        )
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        print(f"{args.check_metrics}: {'INVALID' if problems else 'ok'}")
        return 1 if problems else 0

    if args.check_serve is not None:
        problems = validate_serve_snapshot(
            json.loads(Path(args.check_serve).read_text())
        )
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        print(f"{args.check_serve}: {'INVALID' if problems else 'ok'}")
        return 1 if problems else 0

    if args.check_wire is not None:
        problems = check_wire_bars(
            json.loads(Path(args.check_wire).read_text())
        )
        for problem in problems:
            print(f"wire: {problem}", file=sys.stderr)
        print(f"{args.check_wire}: {'INVALID' if problems else 'ok'}")
        return 1 if problems else 0

    if args.wire_out is not None:
        return _write_wire_snapshot(Path(args.wire_out))

    if args.obs_out is not None:
        return _write_obs_snapshot(Path(args.obs_out))

    if args.serve_out is not None:
        return _write_serve_snapshot(Path(args.serve_out))

    scale = repro_scale(1.0)
    stream_items = max(10_000, int(1_000_000 * scale))
    scalar_items = max(2_000, int(100_000 * scale))
    items = distinct_items(stream_items, seed=9)

    snapshot = {
        "generated_by": "tools/bench_snapshot.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stream_items": stream_items,
        "scalar_reference_items": scalar_items,
        "recording": bench_recording(items, items[:scalar_items]),
        "query": bench_query(items),
        "scatter": bench_scatter(stream_items),
        "plane": bench_plane(items[: min(stream_items, 262_144)]),
        "engine": bench_engine(items),
    }

    criteria = {
        name: snapshot["recording"][name]["speedup"] for name in HEADLINE
    }
    snapshot["criteria"] = {
        "headline_speedups": criteria,
        "threshold": 5.0,
        "pass": all(s is not None and s >= 5.0 for s in criteria.values()),
    }

    problems = validate_snapshot(snapshot)
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        print("refusing to write a snapshot that fails its own schema")
        return 1

    Path(args.out).write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {args.out}")
    for name, speedup in criteria.items():
        print(f"  {name:6s} plane path {speedup}x over scalar reference")
    if not snapshot["criteria"]["pass"]:
        print("WARNING: headline speedup below the 5x acceptance threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
