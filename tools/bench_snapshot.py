"""Performance snapshots of the stack: ``BENCH_<section>.json`` at the repo root.

One table, :data:`SECTIONS`, declares four snapshots. Each row names its
schema, its measurement and its bar once; every row is written by one
path and checked by another:

- ``kernels`` — per-estimator recording throughput (Mdps) of the
  vectorized plane path on a 10^6-item distinct stream, next to the
  base-class scalar reference loop (timed on a slice; pure Python is
  ~100× slower), query latency after the load, hash-plane costs per
  chunk and ShardPool ingest vs shard count. Bar: plane-path speedup
  >= 5× for SMB, MRB and HLL++.
- ``obs`` — SMB recording with metrics disabled and enabled, against
  the ``BENCH_kernels.json`` baseline. Bar: < 2% and < 5% regression.
- ``serve`` — an in-process :class:`~repro.serve.CardinalityServer`
  driven through :class:`~repro.serve.ServeClient` over real sockets:
  RECORD keys/s and ESTIMATE QPS. Bar: >= 1M keys/s and >= 50k QPS.
- ``wire`` — every wire-frameable sketch at a realistic fill through
  :func:`repro.wire.encode_sketch`: raw vs frame bytes, codec, encode
  and decode time. Bar: frames of the >= 4-bit register families are
  >= 1.2× smaller than raw ``to_bytes``.

Usage (from the repo root)::

    PYTHONPATH=src python tools/bench_snapshot.py kernels obs
    PYTHONPATH=src python tools/bench_snapshot.py --check BENCH_*.json

Writing measures the named sections in table order (``obs`` reads the
``kernels`` baseline), refuses a snapshot that fails its own schema and
writes one that misses its bar with a warning. ``--check`` takes the
section from the ``BENCH_<section>.json`` file name, validates the
schema, recomputes ``criteria`` from the file's own numbers, and
requires it to equal the recorded ``criteria`` with ``pass`` true.
``REPRO_SCALE`` scales every stream down for smoke runs, exactly as it
does for the experiment harness.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

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
from repro.engine.partition import Partitioner
from repro.kernels import (
    HashPlane,
    geometric_request,
    positions_request,
    uniform_request,
)
from repro.streams import distinct_items

ROOT = Path(__file__).resolve().parent.parent
MEMORY_BITS = 5_000
HEADLINE = ("SMB", "MRB", "HLL++")  # the kernels bar's trio
MIN_SPEEDUP = 5.0
MAX_DISABLED_REGRESSION = 0.02
MAX_ENABLED_REGRESSION = 0.05
MIN_ESTIMATE_QPS = 50_000.0
MIN_RECORD_KEYS_PER_SECOND = 1_000_000.0
MIN_REGISTER_FAMILY_RATIO = 1.2


# ----------------------------------------------------------------------
# Snapshot schemas
# ----------------------------------------------------------------------
# BENCH files are read by humans diffing PRs and by the CI artifact
# pipeline; a malformed snapshot (missing section, NaN timing, negative
# throughput) should fail loudly, not skew a later comparison silently.
# The schema language is deliberately tiny:
#
#   str / bool / dict          exact type (a str also non-blank)
#   "number" / "count"         finite float-or-int; count also >= 0
#   "speedup"                  number or null (scalar reference may be 0)
#   {"__keys__": subschema}    dict with arbitrary keys, uniform values
#   {fixed: subschema, ...}    dict with exactly these required keys
#   [subschema]                non-empty list, uniform element schema
#   ("a", "b")                 string enum
#
# Each section's criteria function declares its ``criteria`` object, so
# the schemas only ask for a dict there: a snapshot's recorded criteria
# must equal what the function gives for the snapshot's own numbers.

_PROVENANCE = {"generated_by": str, "python": str, "numpy": str}

KERNELS_SCHEMA = {
    **_PROVENANCE,
    "stream_items": "count",
    "scalar_reference_items": "count",
    "recording": {
        "__keys__": {
            "batch_mdps": "count",
            "scalar_mdps": "count",
            "speedup": "speedup",
        }
    },
    "query": {"__keys__": {"seconds": "count"}},
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
    "criteria": dict,
}

_OBS_MODE = {
    "mdps": "count",
    "seconds": "count",
    "regression_vs_baseline": "number",
}

OBS_SCHEMA = {
    **_PROVENANCE,
    "stream_items": "count",
    "estimator": str,
    "baseline_mdps": "count",
    "baseline_source": str,
    "modes": {"disabled": _OBS_MODE, "enabled": _OBS_MODE},
    "criteria": dict,
}

SERVE_SCHEMA = {
    **_PROVENANCE,
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
            "latency_seconds": {"p50": "count", "p90": "count", "p99": "count"},
        },
        "accuracy": {"tenants": "count", "max_relative_error": "count"},
        "server": {
            "generation": "count",
            "records_submitted": "count",
            "records_applied": "count",
            "records_dropped": "count",
        },
    },
    "criteria": dict,
}

WIRE_SCHEMA = {
    **_PROVENANCE,
    "stream_items": "count",
    "memory_bits": "count",
    "sketches": {
        "__keys__": {
            "codec": ("raw", "huffman", "zrle"),
            "raw_bytes": "count",
            "frame_bytes": "count",
            "ratio": "count",
            "encode_ms": "count",
            "decode_ms": "count",
        }
    },
    "criteria": dict,
}


def _check(value, schema, path: str, errors: list[str]) -> None:
    def fail(expected: str) -> None:
        errors.append(f"{path}: expected {expected}, got {value!r}")

    if schema in (str, bool, dict):
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


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def _time(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn`` in seconds (noise-resistant)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_recording(
    items: np.ndarray, scalar_items: np.ndarray
) -> tuple[dict, dict]:
    """Plane path vs scalar reference loop per estimator, and the query
    latency of the plane-path estimator once it holds ``items``."""
    recording, query = {}, {}
    for name in ALL_ESTIMATORS:
        design = max(items.size, 1_000_000)
        warmup = make_estimator(name, MEMORY_BITS, design, seed=1)
        estimator = make_estimator(name, MEMORY_BITS, design, seed=0)
        batch_seconds = time_recording(estimator, items, warmup=warmup)
        scalar = make_estimator(name, MEMORY_BITS, design, seed=0)
        start = time.perf_counter()
        scalar._record_batch(scalar_items)
        scalar_seconds = time.perf_counter() - start
        batch = mdps(items.size, batch_seconds)
        reference = mdps(scalar_items.size, scalar_seconds)
        recording[name] = {
            "batch_mdps": round(batch, 3),
            "scalar_mdps": round(reference, 3),
            "speedup": round(batch / reference, 1) if reference else None,
        }
        query[name] = {"seconds": time_call(estimator.query)}
    return recording, query


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
    def pool(name: str, num_shards: int, seed: int) -> ShardPool:
        return ShardPool.of(
            name,
            MEMORY_BITS * num_shards,
            num_shards,
            design_cardinality=max(items.size, 1_000_000) * num_shards,
            seed=seed,
        )

    rows = []
    for name in ("SMB", "HLL++"):
        for num_shards in (1, 4, 8):
            seconds = time_recording(
                pool(name, num_shards, 0),
                items,
                warmup=pool(name, num_shards, 1),
            )
            rows.append(
                {
                    "estimator": name,
                    "shards": num_shards,
                    "pool_mdps": round(mdps(items.size, seconds), 3),
                }
            )
    return rows


def measure_kernels(scale: float) -> dict:
    stream_items = max(10_000, int(1_000_000 * scale))
    scalar_items = max(2_000, int(100_000 * scale))
    items = distinct_items(stream_items, seed=9)
    recording, query = bench_recording(items, items[:scalar_items])
    return {
        "stream_items": stream_items,
        "scalar_reference_items": scalar_items,
        "recording": recording,
        "query": query,
        "plane": bench_plane(items[: min(stream_items, 262_144)]),
        "engine": bench_engine(items),
    }


def kernels_criteria(snapshot: dict) -> dict:
    recording = snapshot["recording"]
    speedups = {
        name: recording[name]["speedup"] if name in recording else None
        for name in HEADLINE
    }
    return {
        "headline_speedups": speedups,
        "threshold": MIN_SPEEDUP,
        "pass": all(s is not None and s >= MIN_SPEEDUP for s in speedups.values()),
    }


# ----------------------------------------------------------------------
# obs
# ----------------------------------------------------------------------
def measure_obs(scale: float) -> dict:
    """SMB recording throughput with metrics disabled vs enabled.

    ``disabled`` runs exactly the table-4 recording benchmark with the
    default ``NullRegistry`` in place; ``enabled`` installs a live
    ``MetricsRegistry`` and attaches an ``SMBObserver`` sink before
    recording. Both are best-of-5 single-pass timings over fresh
    estimators, compared against the ``BENCH_kernels.json`` SMB batch
    throughput (the pre-observability baseline).
    """
    from repro.obs import MetricsRegistry, SMBObserver, set_registry

    kernels = json.loads((ROOT / "BENCH_kernels.json").read_text())
    baseline_mdps = kernels["recording"]["SMB"]["batch_mdps"]
    stream_items = max(10_000, int(1_000_000 * scale))
    items = distinct_items(stream_items, seed=9)
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
    return {
        "stream_items": stream_items,
        "estimator": "SMB",
        "baseline_mdps": baseline_mdps,
        "baseline_source": "BENCH_kernels.json recording.SMB.batch_mdps",
        "modes": modes,
    }


def obs_criteria(snapshot: dict) -> dict:
    modes = snapshot["modes"]
    return {
        "disabled_max_regression": MAX_DISABLED_REGRESSION,
        "enabled_max_regression": MAX_ENABLED_REGRESSION,
        "pass": (
            modes["disabled"]["regression_vs_baseline"]
            < MAX_DISABLED_REGRESSION
            and modes["enabled"]["regression_vs_baseline"]
            < MAX_ENABLED_REGRESSION
        ),
    }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _percentile(ordered: list[float], fraction: float) -> float:
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


async def drive_serve(
    tenants: int = 4,
    connections: int = 4,
    record_frames: int = 64,
    batch_size: int = 8192,
    estimate_requests: int = 5000,
    window: int = 64,
) -> dict:
    """Drive a fresh in-process server through ``ServeClient``.

    Connection ``c`` records its frame ``f`` into tenant ``f % tenants``
    from its own key lane, so every tenant's exact count is known. A
    CHECKPOINT then drains the server, every tenant's estimate is held
    against its exact count, and each connection fires ``estimate_many``
    bursts of ``window`` requests (``record_frames`` and
    ``estimate_requests`` are per connection). A request's latency is its
    burst's send-to-last-answer time, as a pipelining caller sees it.
    Every response is checked; an error frame raises.
    """
    from repro.engine.recovery import CheckpointManager
    from repro.serve import CardinalityServer, ServeClient, TenantConfig

    names = [f"tenant-{index:03d}" for index in range(tenants)]
    exact = dict.fromkeys(names, 0)  # every key below is distinct

    async def record(client: ServeClient, lane: int) -> None:
        for frame in range(record_frames):
            start = (lane * record_frames + frame) * batch_size
            keys = np.arange(start, start + batch_size, dtype=np.uint64)
            tenant = names[frame % tenants]
            accepted = await client.record(tenant, keys)
            if accepted != batch_size:
                raise RuntimeError(f"RECORD accepted {accepted} of {batch_size}")
            exact[tenant] += batch_size

    async def estimate(client: ServeClient) -> list[float]:
        latencies: list[float] = []
        for first in range(0, estimate_requests, window):
            burst = [
                names[index % tenants]
                for index in range(first, min(first + window, estimate_requests))
            ]
            began = time.perf_counter()
            await client.estimate_many(burst)
            latencies += [time.perf_counter() - began] * len(burst)
        return latencies

    with tempfile.TemporaryDirectory() as scratch:
        server = CardinalityServer(
            TenantConfig(estimator="SMB", memory_bits=MEMORY_BITS),
            checkpoint_manager=CheckpointManager(
                Path(scratch) / "ckpts", sync_directory=False
            ),
        )
        host, port = await server.start("127.0.0.1", 0)
        clients: list[ServeClient] = []
        try:
            for __ in range(connections):
                clients.append(await ServeClient.connect(host, port))
            began = time.perf_counter()
            await asyncio.gather(*(
                record(client, lane) for lane, client in enumerate(clients)
            ))
            record_seconds = time.perf_counter() - began
            generation = await clients[0].checkpoint()
            estimates = await clients[0].estimate_many(names)
            errors = [
                abs(value - exact[name]) / exact[name]
                for name, value in zip(names, estimates) if exact[name]
            ]
            records = (await clients[0].stats())["records"]
            began = time.perf_counter()
            per_client = await asyncio.gather(*map(estimate, clients))
            estimate_seconds = time.perf_counter() - began
        finally:
            for client in clients:
                await client.close()
            await server.stop()

    latencies = sorted(value for chunk in per_client for value in chunk)
    record_keys = connections * record_frames * batch_size
    return {
        "config": {
            "tenants": tenants,
            "connections": connections,
            "record_frames_per_connection": record_frames,
            "batch_size": batch_size,
            "estimate_requests_per_connection": estimate_requests,
            "pipeline_window": window,
        },
        "record": {
            "keys": record_keys,
            "seconds": record_seconds,
            "keys_per_second": record_keys / record_seconds,
        },
        "estimate": {
            "requests": len(latencies),
            "seconds": estimate_seconds,
            "qps": len(latencies) / estimate_seconds,
            "latency_seconds": {
                key: _percentile(latencies, fraction)
                for key, fraction in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99))
            },
        },
        "accuracy": {
            "tenants": tenants,
            "max_relative_error": max(errors, default=0.0),
        },
        "server": {
            "generation": generation,
            "records_submitted": records["submitted"],
            "records_applied": records["applied"],
            "records_dropped": records["dropped"],
        },
    }


def measure_serve(scale: float) -> dict:
    load = drive_serve(
        record_frames=max(8, int(64 * scale)),
        estimate_requests=max(500, int(5000 * scale)),
    )
    return {"estimator": "SMB", "load": asyncio.run(load)}


def serve_criteria(snapshot: dict) -> dict:
    load = snapshot["load"]
    return {
        "min_estimate_qps": MIN_ESTIMATE_QPS,
        "min_record_keys_per_second": MIN_RECORD_KEYS_PER_SECOND,
        "pass": (
            load["estimate"]["qps"] >= MIN_ESTIMATE_QPS
            and load["record"]["keys_per_second"]
            >= MIN_RECORD_KEYS_PER_SECOND
        ),
    }


# ----------------------------------------------------------------------
# wire
# ----------------------------------------------------------------------
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


def measure_wire(scale: float) -> dict:
    from repro.wire import decode_sketch, encode_sketch, frame_info

    stream_items = max(4_000, int(20_000 * scale))
    memory_bits = 50_000
    sketches = {}
    for name, sketch in _wire_zoo(memory_bits, stream_items).items():
        frame = encode_sketch(sketch)
        info = frame_info(frame)
        sketches[name] = {
            "codec": info.codec,
            "raw_bytes": info.raw_bytes,
            "frame_bytes": info.frame_bytes,
            "ratio": round(info.ratio, 3),
            "encode_ms": round(_time(lambda: encode_sketch(sketch)) * 1e3, 3),
            "decode_ms": round(_time(lambda: decode_sketch(frame)) * 1e3, 3),
        }
    return {
        "stream_items": stream_items,
        "memory_bits": memory_bits,
        "sketches": sketches,
    }


def wire_criteria(snapshot: dict) -> dict:
    from repro.estimators.registry import sketch_registry
    from repro.estimators.state import REGISTERS

    registers = {
        name
        for name, cls in sketch_registry("wire").items()
        if cls.state is not None and cls.state.family == REGISTERS
    }
    ratios = {
        name: row["ratio"]
        for name, row in snapshot["sketches"].items()
        if name in registers
    }
    return {
        "register_family_ratios": ratios,
        "min_register_family_ratio": MIN_REGISTER_FAMILY_RATIO,
        "pass": bool(ratios)
        and all(ratio >= MIN_REGISTER_FAMILY_RATIO for ratio in ratios.values()),
    }


# ----------------------------------------------------------------------
# The table, and its one write path and one check path
# ----------------------------------------------------------------------
class Section(NamedTuple):
    """One ``BENCH_<name>.json``: what it holds, how it is measured, its bar."""

    schema: dict
    #: ``REPRO_SCALE`` → the measured keys (everything but provenance
    #: and ``criteria``).
    measure: Callable[[float], dict]
    #: The snapshot's own numbers → its ``criteria``, ``pass`` included.
    criteria: Callable[[dict], dict]


#: Written in this order: ``obs`` reads the ``kernels`` baseline.
SECTIONS = {
    "kernels": Section(KERNELS_SCHEMA, measure_kernels, kernels_criteria),
    "obs": Section(OBS_SCHEMA, measure_obs, obs_criteria),
    "serve": Section(SERVE_SCHEMA, measure_serve, serve_criteria),
    "wire": Section(WIRE_SCHEMA, measure_wire, wire_criteria),
}


def check(name: str, snapshot: object) -> list[str]:
    """Problems with ``snapshot`` as ``BENCH_<name>.json``; empty = ok."""
    section = SECTIONS[name]
    errors: list[str] = []
    _check(snapshot, section.schema, "snapshot", errors)
    if errors:
        return errors
    derived = section.criteria(snapshot)
    if derived != snapshot["criteria"]:
        errors.append(
            f"snapshot.criteria: recorded {snapshot['criteria']}, but the "
            f"snapshot's numbers give {derived}"
        )
    elif not derived["pass"]:
        errors.append(f"snapshot.criteria.pass: the numbers miss the {name} bar")
    return errors


def _summary(path: Path, criteria: dict) -> None:
    verdict = "pass" if criteria["pass"] else "MISSES ITS BAR"
    print(f"{path}: {verdict}; criteria {json.dumps(criteria)}")


def write(name: str) -> int:
    """Measure one section and write ``BENCH_<name>.json`` at the root."""
    section = SECTIONS[name]
    snapshot = {
        "generated_by": "tools/bench_snapshot.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        **section.measure(repro_scale(1.0)),
    }
    snapshot["criteria"] = section.criteria(snapshot)
    path = ROOT / f"BENCH_{name}.json"
    errors: list[str] = []
    _check(snapshot, section.schema, "snapshot", errors)
    if errors:
        for problem in errors:
            print(f"schema: {problem}", file=sys.stderr)
        print(f"refusing to write {path}: it fails its own schema")
        return 1
    path.write_text(json.dumps(snapshot, indent=2) + "\n")
    _summary(path, snapshot["criteria"])
    if not snapshot["criteria"]["pass"]:
        print(f"WARNING: {path.name} misses its bar")
    return 0


def check_files(paths: list[str]) -> int:
    """``--check``: exit status 1 when any file has a problem."""
    status = 0
    for path in map(Path, paths):
        name = path.name.removeprefix("BENCH_").removesuffix(".json")
        if path.name == f"BENCH_{name}.json" and name in SECTIONS:
            snapshot = json.loads(path.read_text())
            problems = check(name, snapshot)
        else:
            problems = [f"not BENCH_<section>.json for a section in {list(SECTIONS)}"]
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        if problems:
            print(f"{path}: INVALID")
            status = 1
        else:
            _summary(path, snapshot["criteria"])
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "sections",
        nargs="*",
        metavar="SECTION",
        help=f"write BENCH_<SECTION>.json; SECTION is one of {', '.join(SECTIONS)}",
    )
    parser.add_argument(
        "--check",
        nargs="+",
        metavar="FILE",
        help="check BENCH_<section>.json files against their schema and bar",
    )
    args = parser.parse_args(argv)
    if bool(args.check) == bool(args.sections) or not (
        set(args.sections) <= SECTIONS.keys()
    ):
        parser.error(
            f"give sections to write ({', '.join(SECTIONS)}) "
            "or --check FILE..."
        )
    if args.check:
        return check_files(args.check)
    return max(write(name) for name in SECTIONS if name in args.sections)

if __name__ == "__main__":
    sys.exit(main())
