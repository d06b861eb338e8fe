"""Observers that wire estimator/engine state into the metrics registry.

The substrate in :mod:`repro.obs.metrics` is generic; this module owns
the *metric catalog* for the library's hot layers (names, types and
labels are documented in ``docs/observability.md``):

- :class:`PipelineMetrics` — the ingest pipeline's counters and
  per-shard apply latency histograms;
- :class:`RecoveryMetrics` — the crash-recovery manager's save/retry/
  fallback/orphan counters, retained-generation gauge and durations
  (:mod:`repro.engine.recovery`);
- :class:`PoolObserver` — per-shard estimate gauges and the estimate
  skew of a :class:`~repro.engine.shards.ShardPool`;
- :class:`SMBObserver` — the paper's own adaptivity signals of one
  :class:`~repro.core.smb.SelfMorphingBitmap`: round index, fill ratio
  ``v/(m−rT)``, morph events and saturation. It satisfies the
  ``SMBMetricsSink`` protocol, so ``smb.attach_metrics(observer)``
  refreshes the gauges once per recorded plane (per chunk, never per
  item);
- :class:`ServerMetrics` — the cardinality service's per-verb request
  counters and latency histograms, error counters by code, connection
  and in-flight gauges, byte counters and the tenant-count gauge
  (:mod:`repro.serve.server`);
- :class:`WireMetrics` — compact sketch frame codec counters
  (:mod:`repro.wire`): frames encoded/decoded by codec, raw vs wire
  bytes (the compression ratio is their quotient) and codec latency;
- :class:`AggMetrics` — cross-node aggregation counters
  (:mod:`repro.agg`): sketches merged, incompatible pairs rejected and
  tree-reduction wall time.

Everything here is only ever constructed when the process-wide registry
is enabled; with the default :class:`~repro.obs.metrics.NullRegistry`
none of these objects exist and the instrumented code paths skip all
metric work.
"""

from __future__ import annotations

from repro.core.smb import SelfMorphingBitmap
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "AggMetrics",
    "PipelineMetrics",
    "PoolObserver",
    "RecoveryMetrics",
    "SERVE_VERBS",
    "SMBObserver",
    "ServerMetrics",
    "WireMetrics",
]

#: The serving layer's request verbs, in wire-constant order. Lives
#: here (not in ``repro.serve.protocol``) so the metric catalog never
#: imports the serving layer — ``repro.serve`` imports ``repro.obs``,
#: not the other way around.
SERVE_VERBS: tuple[str, ...] = (
    "record", "estimate", "stats", "checkpoint", "export", "merge_in",
)

#: Bucket bounds for request/apply latencies (seconds): microseconds for
#: a sub-plane apply up to whole seconds for a slow verb.
LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5,
)


class PipelineMetrics:
    """Instrument bundle used by :class:`~repro.engine.pipeline.IngestPipeline`.

    Resolves every pipeline metric once at construction so the hot path
    touches plain attributes (``submitted.inc(n)``) instead of registry
    lookups. Per-shard children are pre-resolved into lists indexed by
    shard number.
    """

    def __init__(self, registry: MetricsRegistry, num_shards: int) -> None:
        self.submitted = registry.counter(
            "repro_ingest_records_submitted_total",
            "Records accepted by IngestPipeline.submit",
        )
        self.dropped = registry.counter(
            "repro_ingest_records_dropped_total",
            "Records dropped because a shard apply failed",
        )
        self.batches_dropped = registry.counter(
            "repro_ingest_batches_dropped_total",
            "Sub-planes dropped because a shard apply failed",
        )
        apply_latency = registry.histogram(
            "repro_ingest_batch_apply_seconds",
            "Per-shard latency of applying one sub-plane",
            labels=("shard",),
            buckets=LATENCY_BUCKETS,
        )
        self.apply_latency = [
            apply_latency.labels(shard=str(index))
            for index in range(num_shards)
        ]


class RecoveryMetrics:
    """Instrument bundle of :class:`~repro.engine.recovery.CheckpointManager`.

    One instance per manager, constructed only when the process-wide
    registry is enabled (the NullRegistry path never builds it). All
    instruments are touched per save/load/sweep — recovery has no
    per-item work at all.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.saves = registry.counter(
            "repro_recovery_saves_total",
            "Checkpoint generations successfully written and published",
        )
        self.retries = registry.counter(
            "repro_recovery_retries_total",
            "Transient checkpoint I/O failures that were retried",
        )
        self.fallbacks = registry.counter(
            "repro_recovery_fallbacks_total",
            "Torn/unreadable generations skipped by load_latest",
        )
        self.orphans_removed = registry.counter(
            "repro_recovery_orphans_removed_total",
            "Stale .checkpoint-* temp files deleted by the orphan sweep",
        )
        self.pruned = registry.counter(
            "repro_recovery_generations_pruned_total",
            "Old generations deleted by keep-N rotation",
        )
        self.generations = registry.gauge(
            "repro_recovery_generations",
            "Checkpoint generations currently retained",
        )
        self.save_seconds = registry.histogram(
            "repro_recovery_save_seconds",
            "Wall time of one CheckpointManager.save (incl. rotation)",
        )
        self.load_seconds = registry.histogram(
            "repro_recovery_load_seconds",
            "Wall time of one CheckpointManager.load_latest",
        )


class ServerMetrics:
    """Instrument bundle of the cardinality service.

    Per-verb children are pre-resolved into dicts keyed by the verb
    names in :data:`SERVE_VERBS`, so the connection hot path does plain
    ``requests["estimate"].inc()`` attribute work — no registry or
    label lookups per frame. Error counters are resolved lazily by
    numeric code (errors are rare; a dict-miss there is fine).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        requests = registry.counter(
            "repro_serve_requests_total",
            "Requests decoded, by verb",
            labels=("verb",),
        )
        latency = registry.histogram(
            "repro_serve_request_seconds",
            "Request latency from frame decode to response write, by verb",
            labels=("verb",),
            buckets=LATENCY_BUCKETS,
        )
        self.requests = {verb: requests.labels(verb=verb) for verb in SERVE_VERBS}
        self.latency = {verb: latency.labels(verb=verb) for verb in SERVE_VERBS}
        self._errors = registry.counter(
            "repro_serve_errors_total",
            "Error frames sent, by protocol error code",
            labels=("code",),
        )
        self.in_flight = registry.gauge(
            "repro_serve_in_flight",
            "Requests currently being served",
        )
        self.connections = registry.gauge(
            "repro_serve_connections",
            "Client connections currently open",
        )
        self.connections_total = registry.counter(
            "repro_serve_connections_total",
            "Client connections accepted since start",
        )
        self.bytes_read = registry.counter(
            "repro_serve_bytes_read_total",
            "Request bytes received from clients",
        )
        self.bytes_written = registry.counter(
            "repro_serve_bytes_written_total",
            "Response bytes written to clients",
        )
        self.tenants = registry.gauge(
            "repro_serve_tenants",
            "Tenants currently materialized in the registry",
        )

    def error(self, code: int) -> None:
        """Count one error frame by protocol error code."""
        self._errors.labels(code=str(code)).inc()


#: Wire codec names, in wire-constant order (0 = raw). Lives here (not
#: in ``repro.wire.frame``) for the same reason as :data:`SERVE_VERBS`:
#: the metric catalog never imports the layers it instruments.
WIRE_CODECS: tuple[str, ...] = ("raw", "huffman", "zrle")


class WireMetrics:
    """Instrument bundle of the compact sketch frame codec.

    Per-codec children are pre-resolved into dicts keyed by the codec
    names in :data:`WIRE_CODECS`; encode/decode paths do plain
    ``encoded["huffman"].inc()`` work. Raw and wire byte counters run
    alongside so the fleet-wide compression ratio is one quotient away.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        encoded = registry.counter(
            "repro_wire_frames_encoded_total",
            "Sketch frames encoded, by winning codec",
            labels=("codec",),
        )
        decoded = registry.counter(
            "repro_wire_frames_decoded_total",
            "Sketch frames decoded, by codec",
            labels=("codec",),
        )
        self.encoded = {codec: encoded.labels(codec=codec) for codec in WIRE_CODECS}
        self.decoded = {codec: decoded.labels(codec=codec) for codec in WIRE_CODECS}
        self.decode_errors = registry.counter(
            "repro_wire_decode_errors_total",
            "Frames rejected by decode_sketch (bad magic/CRC/payload)",
        )
        self.raw_bytes = registry.counter(
            "repro_wire_raw_bytes_total",
            "Uncompressed to_bytes payload bytes passed through the codec",
        )
        self.wire_bytes = registry.counter(
            "repro_wire_frame_bytes_total",
            "Encoded frame bytes produced (header + blob + checksum)",
        )
        self.encode_seconds = registry.histogram(
            "repro_wire_encode_seconds",
            "Wall time of one encode_sketch call",
            buckets=LATENCY_BUCKETS,
        )
        self.decode_seconds = registry.histogram(
            "repro_wire_decode_seconds",
            "Wall time of one decode_sketch call",
            buckets=LATENCY_BUCKETS,
        )


class AggMetrics:
    """Instrument bundle of the cross-node aggregation layer.

    Constructed per :func:`repro.agg.tree_reduce` call site when the
    registry is enabled; reductions are rare control-plane work, so
    nothing here is hot.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.merges = registry.counter(
            "repro_agg_merges_total",
            "Pairwise sketch merges performed by tree_reduce",
        )
        self.incompatible = registry.counter(
            "repro_agg_incompatible_total",
            "Reductions aborted because operands were not merge-compatible",
        )
        self.reduced = registry.counter(
            "repro_agg_reductions_total",
            "tree_reduce calls completed",
        )
        self.inputs = registry.histogram(
            "repro_agg_reduce_inputs",
            "Operand count per tree_reduce call",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )
        self.reduce_seconds = registry.histogram(
            "repro_agg_reduce_seconds",
            "Wall time of one tree_reduce call",
            buckets=LATENCY_BUCKETS,
        )


class SMBObserver:
    """Mirror one SMB's adaptivity signals into gauges and a counter.

    Satisfies the ``SMBMetricsSink`` protocol of
    :mod:`repro.core.smb`: attach with ``smb.attach_metrics(observer)``
    and the estimator calls :meth:`update` once per recorded plane.
    Morph events are derived from the round index advancing between
    updates, so attaching after a restore does not re-count historical
    morphs.
    """

    def __init__(self, registry: MetricsRegistry, shard: str = "0") -> None:
        labels = ("shard",)
        self._round = registry.gauge(
            "repro_smb_round", "Current SMB round index r", labels,
        ).labels(shard=shard)
        self._fill = registry.gauge(
            "repro_smb_fill_ratio",
            "SMB logical fill ratio v / (m - r*T)", labels,
        ).labels(shard=shard)
        self._saturated = registry.gauge(
            "repro_smb_saturated",
            "1 once the SMB bitmap is completely full", labels,
        ).labels(shard=shard)
        self._morphs = registry.counter(
            "repro_smb_morphs_total",
            "SMB morph events observed (round advances)", labels,
        ).labels(shard=shard)
        self._last_round: int | None = None

    def update(self, smb: SelfMorphingBitmap) -> None:
        """Refresh the gauges from the estimator's current counters."""
        current_round = smb.r
        if self._last_round is not None and current_round > self._last_round:
            self._morphs.inc(current_round - self._last_round)
        self._last_round = current_round
        self._round.set(current_round)
        self._fill.set(smb.fill_ratio)
        self._saturated.set(1.0 if smb.saturated else 0.0)


class PoolObserver:
    """Per-shard estimate gauges and skew for a shard pool.

    On construction, every :class:`~repro.core.smb.SelfMorphingBitmap`
    shard additionally gets an :class:`SMBObserver` attached (pass
    ``attach_smb=False`` to opt out), so the paper's adaptivity signals
    stream out per shard during ingestion. :meth:`update` is on-demand
    — call it at safe points (after a drain, before a snapshot); shard
    ``query()`` is cheap but not free, so it is not run per batch.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        pool: object,
        attach_smb: bool = True,
    ) -> None:
        self.pool = pool
        estimate = registry.gauge(
            "repro_pool_shard_estimate",
            "Per-shard cardinality estimate", labels=("shard",),
        )
        num_shards = len(pool.shards)  # type: ignore[attr-defined]
        self._estimates = [
            estimate.labels(shard=str(index)) for index in range(num_shards)
        ]
        self._skew = registry.gauge(
            "repro_pool_estimate_skew",
            "max/mean - 1 across per-shard estimates (0 = perfectly even)",
        )
        self._smb_sinks: list[tuple[SelfMorphingBitmap, SMBObserver]] = []
        if attach_smb:
            for index, shard in enumerate(pool.shards):  # type: ignore[attr-defined]
                if isinstance(shard, SelfMorphingBitmap):
                    sink = SMBObserver(registry, shard=str(index))
                    shard.attach_metrics(sink)
                    self._smb_sinks.append((shard, sink))

    def update(self) -> None:
        """Refresh estimate/skew gauges (and any attached SMB gauges)."""
        estimates = self.pool.shard_estimates()  # type: ignore[attr-defined]
        for gauge, value in zip(self._estimates, estimates):
            gauge.set(value)
        mean = sum(estimates) / len(estimates) if estimates else 0.0
        self._skew.set(max(estimates) / mean - 1.0 if mean > 0 else 0.0)
        for shard, sink in self._smb_sinks:
            sink.update(shard)

