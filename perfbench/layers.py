"""Per-layer metrics of a traced pass, from its spans and shutdown facts.

Every metric is ``(value, unit)``. ``_ns_per_key`` (and per byte)
metrics divide the thread CPU time of a layer's calls, children
included, by the keys (or indices, or bytes) they were called with, so
waiting for the interpreter lock is not billed to the layer. ``_p50``
metrics are medians of wall time over calls: what a caller waited. A
time is reported only for a layer that does work in every workload; a
count of a layer's work (``kernels.take_mb``, 0 at K = 1) may be 0. The
traced-minus-untraced difference of every end-to-end metric is
``trace.<metric>.delta``, in the metric's own unit.
"""

from __future__ import annotations

import numpy as np

import traffic
from tracing import COUNT, END, TAG, Spans
from workloads import BOUNDED, UNITS, PassResult


def _per(spans: Spans, name: str, tag=None) -> float:
    """CPU time of ``name`` calls per unit of their count, in ns."""
    mask = spans.select(name, tag)
    count = spans.table[mask, COUNT].sum()
    if not count:
        return 0.0
    return float(spans.cpu(mask).sum()) / float(count)


def _p50(spans: Spans, name: str, scale: float, tag=None,
         self_time: bool = False) -> float:
    """Median wall (self) time of ``name`` calls, in ns times ``scale``."""
    mask = spans.select(name, tag)
    if not mask.any():
        return 0.0
    times = spans.self_wall[mask] if self_time else spans.wall(mask)
    return float(np.median(times)) * scale


def per_layer(traced: PassResult, plain: PassResult) -> dict[str, tuple]:
    spans = Spans.load(traced.spans)
    facts = traced.facts
    us, ms = 1e-3, 1e-6
    table = spans.table
    metrics: dict[str, tuple] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (float(value), unit)

    # serve.protocol
    put("serve.protocol.record_decode_ns_per_key",
        _per(spans, "serve.protocol.decode_request", tag=traffic.RECORD),
        "ns/key")
    put("serve.protocol.estimate_decode_p50_us",
        _p50(spans, "serve.protocol.decode_request", us, tag=traffic.ESTIMATE),
        "us")
    put("serve.protocol.feed_ns_per_byte",
        _per(spans, "serve.protocol.feed"), "ns/byte")

    # serve.server
    put("serve.server.inline_p50_us",
        _p50(spans, "serve.server.handle_inline", us, tag=traffic.ESTIMATE),
        "us")
    put("serve.server.record_handle_p50_us",
        _p50(spans, "serve.server.handle", us, tag=traffic.RECORD), "us")
    lags = np.asarray(facts.get("loop_lag_s", []), dtype=float)
    put("serve.server.loop_lag_p99_ms",
        float(np.percentile(lags, 99)) * 1e3 if lags.size else 0.0, "ms")
    put("serve.server.threads", facts.get("threads", 0), "count")
    keys = max(1, int(facts.get("keys_submitted", 0)))
    put("serve.server.cpu_ns_per_key", facts.get("cpu_s", 0.0) * 1e9 / keys,
        "ns/key")
    put("serve.server.error_frames",
        int(spans.select("serve.server.error_frame").sum()), "count")

    # serve.tenants
    put("serve.tenants.build_pool_p50_ms",
        _p50(spans, "serve.tenants.build_pool", ms), "ms")
    put("serve.tenants.build_pool_calls",
        int(spans.select("serve.tenants.build_pool").sum()), "count")
    put("serve.tenants.to_bytes_p50_ms",
        _p50(spans, "serve.tenants.to_bytes", ms), "ms")

    # engine.pipeline and hashing
    put("engine.pipeline.submit_ns_per_key",
        _per(spans, "engine.pipeline.submit"), "ns/key")
    put("engine.pipeline.submit_self_ms",
        _p50(spans, "engine.pipeline.submit", ms, self_time=True), "ms")
    put("engine.pipeline.drain_p50_ms",
        _p50(spans, "engine.pipeline.drain", ms), "ms")
    put("engine.pipeline.query_live_p50_us",
        _p50(spans, "engine.pipeline.query_live", us), "us")
    put("hashing.canonical_ns_per_key",
        _per(spans, "hashing.canonical_u64_array"), "ns/key")

    # kernels
    put("kernels.prefetch_ns_per_key", _per(spans, "kernels.prefetch"),
        "ns/key")
    take = spans.select("kernels.take")
    put("kernels.take_mb", table[take, TAG].sum() / 1e6, "MB")

    # engine.partition
    put("engine.partition.split_ns_per_key",
        _per(spans, "engine.partition.split_plane"), "ns/key")
    shard_keys = np.array(list(facts.get("shard_keys", {}).values()), float)
    put("engine.partition.shard_skew",
        shard_keys.max() / shard_keys.mean() if shard_keys.sum() else 1.0,
        "ratio")

    # core.smb and bitvector
    record = spans.select("core.smb.record_plane")
    arrivals = table[record, COUNT].sum()
    put("core.smb.record_ns_per_key", _per(spans, "core.smb.record_plane"),
        "ns/key")
    put("core.smb.step1_pass_pct",
        100.0 * table[record, TAG].sum() / arrivals if arrivals else 0.0, "%")
    rounds = facts.get("rounds", [])
    put("core.smb.round_mean", np.mean(rounds) if rounds else 0.0, "round")
    put("core.smb.query_p50_us", _p50(spans, "core.smb.query", us), "us")
    put("bitvector.set_many_ns_per_key", _per(spans, "bitvector.set_many"),
        "ns/key")
    put("bitvector.set_many_keys",
        table[spans.select("bitvector.set_many"), COUNT].sum(), "count")

    # engine.recovery and wire
    saves = spans.select("engine.recovery.save")
    put("engine.recovery.save_p50_ms",
        _p50(spans, "engine.recovery.save", ms), "ms")
    put("engine.recovery.generation_bytes",
        table[saves, COUNT][np.argmax(table[saves, END])] if saves.any() else 0,
        "bytes")
    encodes = spans.select("wire.encode_sketch")
    put("wire.encode_p50_ms", _p50(spans, "wire.encode_sketch", ms), "ms")
    put("wire.frame_to_raw_ratio",
        table[encodes, COUNT].sum() / table[encodes, TAG].sum()
        if encodes.any() else 0.0, "ratio")

    # The unbounded end-to-end metrics and deterministic outputs of the
    # untraced pass, and what tracing cost end to end
    for name, unit in UNITS.items():
        if name not in BOUNDED:
            put(name, plain.metrics[name], unit)
    put("rel_error_pct", plain.deterministic["rel_error_pct"], "%")
    put("export_bytes", plain.deterministic["export_bytes"], "bytes/tenant")
    for name, unit in UNITS.items():
        put(f"trace.{name}.delta",
            traced.metrics[name] - plain.metrics[name], unit)
    put("loadgen.lateness_p99_us", plain.lateness["p99"], "us")
    return metrics
