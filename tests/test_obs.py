"""Tests for the observability layer (``repro.obs``).

Covers the metric primitives (histogram quantiles, labeled families,
registry get-or-create semantics), the no-op disabled substrate, the
Prometheus/JSON renderers and their round-trip, the periodic
snapshotter, the instrumented ingest pipeline's metric emission against
an exact oracle, the ``repro stats`` / ``repro engine --metrics-out``
CLI surfaces, and the overhead guard backed by ``BENCH_obs.json``.
"""

from __future__ import annotations

import importlib.util
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.smb import SelfMorphingBitmap
from repro.engine import IngestPipeline, ShardPool
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    PeriodicSnapshotter,
    PoolObserver,
    SMBObserver,
    get_registry,
    parse_prometheus,
    render_prometheus,
    set_registry,
    snapshot,
    write_snapshot,
)
from repro.streams import distinct_items

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def registry():
    """A live registry installed process-wide, restored afterwards."""
    reg = MetricsRegistry()
    previous = set_registry(reg)
    try:
        yield reg
    finally:
        set_registry(previous)


@pytest.fixture(scope="module")
def bench_snapshot_module():
    spec = importlib.util.spec_from_file_location(
        "bench_snapshot_obs", REPO_ROOT / "tools" / "bench_snapshot.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestCounterGauge:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0


class TestHistogram:
    def test_bucket_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram(())
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram((1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="finite"):
            Histogram((1.0, math.inf))

    def test_count_sum_and_cumulative_buckets(self):
        histogram = Histogram((1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 9.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(15.5)
        buckets = histogram.cumulative_buckets()
        assert buckets == [(1.0, 1), (2.0, 3), (4.0, 4), (math.inf, 5)]

    def test_empty_quantile_is_zero(self):
        assert Histogram((1.0,)).quantile(0.5) == 0.0

    def test_quantile_interpolation(self):
        # 100 observations uniform in (0, 1]: all land in the (0, 1]
        # bucket of bounds (1, 2). Prometheus-style interpolation puts
        # the median at rank 50 of 100 in [0, 1] -> 0.5.
        histogram = Histogram((1.0, 2.0))
        for i in range(100):
            histogram.observe((i + 1) / 100)
        assert histogram.quantile(0.5) == pytest.approx(0.5)
        assert histogram.quantile(1.0) == pytest.approx(1.0)

    def test_quantile_across_buckets(self):
        histogram = Histogram((1.0, 2.0, 4.0))
        for value in (0.5,) * 5 + (1.5,) * 5:
            histogram.observe(value)
        # rank 9 of 10 falls in the (1, 2] bucket: 5 below, interpolate
        # (9 - 5) / 5 of the way from 1.0 to 2.0.
        assert histogram.quantile(0.9) == pytest.approx(1.8)

    def test_overflow_reports_last_finite_bound(self):
        histogram = Histogram((1.0, 2.0))
        histogram.observe(100.0)
        assert histogram.quantile(0.99) == 2.0

    def test_percentiles_keys(self):
        assert set(Histogram((1.0,)).percentiles()) == {"p50", "p90", "p99"}

    def test_quantile_range_check(self):
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            Histogram((1.0,)).quantile(1.5)


# ----------------------------------------------------------------------
# Registry and families
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_x_total") is registry.counter(
            "repro_x_total"
        )

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x_total")

    def test_label_schema_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("repro_depth", labels=("shard",))
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_depth", labels=("worker",))

    def test_labeled_family_children(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_events_total", labels=("shard",))
        a = family.labels(shard="0")
        b = family.labels(shard="1")
        assert a is family.labels(shard="0")
        assert a is not b
        a.inc(3)
        assert [(values, child.value) for values, child in family.samples()] \
            == [(("0",), 3.0), (("1",), 0.0)]

    def test_wrong_label_set_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_events_total", labels=("shard",))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(worker="0")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad name")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("repro_ok_total", labels=("bad-label",))

    def test_collect_shapes(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "help a").inc(2)
        registry.histogram("repro_b_seconds", buckets=(1.0, 2.0)).observe(0.5)
        collected = {family["name"]: family for family in registry.collect()}
        assert collected["repro_a_total"]["samples"][0]["value"] == 2.0
        histogram = collected["repro_b_seconds"]["samples"][0]
        assert histogram["count"] == 1
        assert histogram["buckets"][-1][0] == "+Inf"
        assert {"p50", "p90", "p99"} <= histogram.keys()


class TestNullRegistry:
    def test_default_registry_is_disabled(self):
        registry = get_registry()
        assert isinstance(registry, NullRegistry)
        assert registry.enabled is False

    def test_noop_instruments_are_shared_and_inert(self):
        registry = NullRegistry()
        instrument = registry.counter("repro_x_total")
        assert instrument is registry.histogram("repro_y_seconds")
        instrument.inc(5)
        instrument.observe(1.0)
        instrument.set(3.0)
        instrument.dec()
        assert instrument.labels(shard="0") is instrument
        assert instrument.value == 0.0
        assert registry.collect() == []
        assert registry.families() == []

    def test_set_registry_returns_previous(self):
        live = MetricsRegistry()
        previous = set_registry(live)
        try:
            assert get_registry() is live
        finally:
            assert set_registry(previous) is live
        assert get_registry() is previous

    def test_set_registry_type_checked(self):
        with pytest.raises(TypeError, match="MetricsRegistry"):
            set_registry(object())


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_total", "plain counter").inc(7)
    registry.gauge(
        "repro_depth", "labeled gauge", labels=("shard",)
    ).labels(shard="0").set(3)
    registry.histogram(
        "repro_latency_seconds", "latency", buckets=(0.1, 1.0)
    ).observe(0.05)
    return registry


class TestRender:
    def test_prometheus_text_structure(self):
        text = render_prometheus(_sample_registry())
        assert "# HELP repro_total plain counter" in text
        assert "# TYPE repro_latency_seconds histogram" in text
        assert 'repro_depth{shard="0"} 3.0' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_latency_seconds_count 1" in text

    def test_registry_and_snapshot_render_identically(self):
        registry = _sample_registry()
        assert render_prometheus(registry) == render_prometheus(
            snapshot(registry)
        )

    def test_round_trip_through_parse(self):
        registry = _sample_registry()
        samples = parse_prometheus(render_prometheus(registry))
        assert samples["repro_total"] == 7.0
        assert samples['repro_depth{shard="0"}'] == 3.0
        assert samples['repro_latency_seconds_bucket{le="0.1"}'] == 1.0
        assert samples["repro_latency_seconds_sum"] == pytest.approx(0.05)

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.gauge("repro_g", labels=("k",)).labels(k='a"b\\c\nd').set(1)
        text = render_prometheus(registry)
        assert r'repro_g{k="a\"b\\c\nd"} 1.0' in text
        assert parse_prometheus(text)[r'repro_g{k="a\"b\\c\nd"}'] == 1.0

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus("justonetoken\n")

    def test_write_snapshot_atomic_and_valid(
        self, tmp_path, bench_snapshot_module
    ):
        path = tmp_path / "metrics.json"
        document = write_snapshot(
            _sample_registry(), path, run={"records_submitted": 10}
        )
        assert not (tmp_path / "metrics.json.tmp").exists()
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(document))
        assert on_disk["generated_by"] == "repro.obs"
        assert on_disk["run"] == {"records_submitted": 10}
        assert bench_snapshot_module.validate_metrics_snapshot(on_disk) == []

    def test_metrics_schema_rejects_corruption(self, bench_snapshot_module):
        document = snapshot(_sample_registry())
        document["metrics"][0]["type"] = "summary"
        document["generated_by"] = "elsewhere"
        problems = bench_snapshot_module.validate_metrics_snapshot(document)
        joined = "\n".join(problems)
        assert "generated_by" in joined
        assert ".type" in joined
        assert bench_snapshot_module.validate_metrics_snapshot([]) != []


class TestSnapshotter:
    def test_periodic_and_final_snapshots(self, tmp_path):
        registry = MetricsRegistry()
        counter = registry.counter("repro_ticks_total")
        path = tmp_path / "metrics.json"
        refreshes = []
        snapper = PeriodicSnapshotter(
            registry, path, interval=0.02,
            refresh=lambda: refreshes.append(1), run={"seed": 0},
        )
        with snapper:
            counter.inc()
            deadline = time.monotonic() + 5.0
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        assert snapper.snapshots_written >= 1
        assert len(refreshes) == snapper.snapshots_written
        document = json.loads(path.read_text())
        assert document["run"] == {"seed": 0}
        names = {family["name"] for family in document["metrics"]}
        assert "repro_ticks_total" in names

    def test_interval_validation(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            PeriodicSnapshotter(MetricsRegistry(), tmp_path / "m.json", 0.0)

    def test_stop_without_start_is_noop(self, tmp_path):
        snapper = PeriodicSnapshotter(
            MetricsRegistry(), tmp_path / "m.json", 1.0
        )
        snapper.stop()
        assert not (tmp_path / "m.json").exists()


# ----------------------------------------------------------------------
# Instrumentation against an exact oracle
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_pipeline_metrics_match_exact_oracle(self, registry):
        items = distinct_items(40_000, seed=5)
        pool = ShardPool.of(
            "SMB", 40_000, 4, design_cardinality=1_000_000, seed=0
        )
        with IngestPipeline(pool, chunk_size=4096) as pipe:
            pipe.submit(items)
            pipe.drain()
            submitted, dropped = pipe.records_submitted, pipe.records_dropped

        # Exact oracle: a distinct stream, fully applied.
        assert submitted - dropped == items.size
        assert registry.counter(
            "repro_ingest_records_submitted_total"
        ).value == submitted
        assert registry.counter(
            "repro_ingest_records_dropped_total"
        ).value == dropped == 0

        collected = {f["name"]: f for f in registry.collect()}
        applies = collected["repro_ingest_batch_apply_seconds"]
        total_applied_batches = sum(
            sample["count"] for sample in applies["samples"]
        )
        # One apply per shard per chunk: 10 chunks of 4096 into 4 shards.
        assert len(applies["samples"]) == 4
        assert total_applied_batches == 4 * -(-items.size // 4096)

        # PoolObserver refreshed at drain: estimates and skew are live.
        estimates = [
            sample["value"]
            for sample in collected["repro_pool_shard_estimate"]["samples"]
        ]
        assert sum(estimates) == pytest.approx(pool.query(), rel=1e-9)
        assert collected["repro_pool_estimate_skew"]["samples"][0][
            "value"
        ] >= 0.0
        # SMB shards stream the paper's adaptivity signals.
        rounds = collected["repro_smb_round"]["samples"]
        assert {s["labels"]["shard"] for s in rounds} == {"0", "1", "2", "3"}

    def test_disabled_pipeline_holds_no_observers(self):
        assert get_registry().enabled is False
        pool = ShardPool.of("SMB", 8_000, 2, seed=0)
        with IngestPipeline(pool) as pipe:
            assert pipe.pool_observer is None
            assert pipe._obs is None
            pipe.submit(distinct_items(1_000, seed=1))

    def test_smb_observer_counts_morphs(self, registry):
        smb = SelfMorphingBitmap(
            memory_bits=256, design_cardinality=200_000, seed=3
        )
        observer = SMBObserver(registry, shard="9")
        smb.attach_metrics(observer)
        smb.record_many(distinct_items(150_000, seed=4))
        assert smb.r > 0  # the stream is large enough to morph
        morphs = registry.counter(
            "repro_smb_morphs_total", labels=("shard",)
        ).labels(shard="9")
        assert morphs.value == smb.r
        fill = registry.gauge(
            "repro_smb_fill_ratio", labels=("shard",)
        ).labels(shard="9")
        assert fill.value == pytest.approx(smb.fill_ratio)

    def test_smb_sink_detaches(self, registry):
        smb = SelfMorphingBitmap(
            memory_bits=512, design_cardinality=10_000, seed=3
        )
        smb.attach_metrics(SMBObserver(registry, shard="a"))
        smb.attach_metrics(None)
        smb.record_many(distinct_items(100, seed=1))
        gauge = registry.gauge(
            "repro_smb_round", labels=("shard",)
        ).labels(shard="a")
        assert gauge.value == 0.0

    def test_pool_observer_opt_out(self, registry):
        pool = ShardPool.of("SMB", 8_000, 2, seed=0)
        observer = PoolObserver(registry, pool, attach_smb=False)
        pool.record_many(distinct_items(2_000, seed=2))
        observer.update()
        assert all(shard._obs_sink is None for shard in pool.shards)


# ----------------------------------------------------------------------
# The documented catalog matches the registered families
# ----------------------------------------------------------------------
class TestCatalog:
    def test_doc_catalog_matches_registered_families(self, registry, tmp_path):
        import re

        from repro.engine import checkpoint
        from repro.obs import instrument

        pool = ShardPool.of("SMB", 8_000, 2, seed=0)
        bundles = {
            "AggMetrics": lambda: instrument.AggMetrics(registry),
            "PipelineMetrics": lambda: instrument.PipelineMetrics(registry, 2),
            "PoolObserver": lambda: instrument.PoolObserver(registry, pool),
            "RecoveryMetrics": lambda: instrument.RecoveryMetrics(registry),
            "SMBObserver": lambda: instrument.SMBObserver(registry),
            "ServerMetrics": lambda: instrument.ServerMetrics(registry),
            "WireMetrics": lambda: instrument.WireMetrics(registry),
        }
        exported = {
            name for name in instrument.__all__
            if isinstance(getattr(instrument, name), type)
        }
        assert set(bundles) == exported  # a new bundle must be listed
        for build in bundles.values():
            build()
        checkpoint.save(pool, tmp_path / "pool.ckpt")
        checkpoint.load(tmp_path / "pool.ckpt")
        registered = {
            family.name for family in registry.families()
            if family.name.startswith("repro_")
        }

        doc = (REPO_ROOT / "docs" / "observability.md").read_text()
        catalog = doc.split("## Metric catalog", 1)[1].split("\n## ", 1)[0]
        documented = set(
            re.findall(r"^\| `(repro_[a-z0-9_]+)` \|", catalog, re.MULTILINE)
        )
        assert registered == documented


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestCLI:
    def test_engine_metrics_out_schema_valid(
        self, tmp_path, capsys, bench_snapshot_module
    ):
        from repro.engine.cli import engine_main

        path = tmp_path / "metrics.json"
        code = engine_main([
            "--items", "20000", "--shards", "2", "--memory-bits", "20000",
            "--metrics-out", str(path),
        ])
        assert code == 0
        assert "wrote metrics snapshot" in capsys.readouterr().out
        # The registry is restored to disabled after the run.
        assert get_registry().enabled is False

        document = json.loads(path.read_text())
        assert bench_snapshot_module.validate_metrics_snapshot(document) == []
        run = document["run"]
        # Duplication 1.0: the stream is fully distinct -> the pipeline
        # accounting must reproduce the exact oracle count.
        assert run["records_submitted"] - run["records_dropped"] == 20_000
        assert run["distinct_items"] == 20_000
        samples = parse_prometheus(render_prometheus(document))
        assert samples["repro_ingest_records_submitted_total"] == 20_000.0

    def test_engine_metrics_interval_writes_periodically(self, tmp_path):
        from repro.engine.cli import engine_main

        path = tmp_path / "metrics.json"
        code = engine_main([
            "--items", "30000", "--shards", "2",
            "--metrics-out", str(path), "--metrics-interval", "0.01",
        ])
        assert code == 0
        assert json.loads(path.read_text())["generated_by"] == "repro.obs"

    def test_engine_interval_requires_out(self):
        from repro.engine.cli import engine_main

        with pytest.raises(SystemExit, match="requires --metrics-out"):
            engine_main(["--metrics-interval", "5"])
        with pytest.raises(SystemExit, match="must be >= 0"):
            engine_main(["--metrics-interval", "-1", "--metrics-out", "x"])

    def test_stats_formats(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "metrics.json"
        write_snapshot(_sample_registry(), path, run={"elapsed_seconds": 1.5})

        assert main(["stats", str(path)]) == 0
        table = capsys.readouterr().out
        assert "repro_total" in table and "elapsed_seconds" in table
        assert "p50=" in table

        assert main(["stats", str(path), "--format", "prom"]) == 0
        samples = parse_prometheus(capsys.readouterr().out)
        assert samples["repro_total"] == 7.0

        assert main(["stats", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["generated_by"] == (
            "repro.obs"
        )

    def test_stats_rejects_non_snapshot(self, tmp_path):
        from repro.obs.cli import stats_main

        path = tmp_path / "not-metrics.json"
        path.write_text("{}")
        with pytest.raises(SystemExit, match="missing 'metrics'"):
            stats_main([str(path)])


# ----------------------------------------------------------------------
# Overhead guard (BENCH_obs.json)
# ----------------------------------------------------------------------
class TestOverheadGuard:
    def test_bench_obs_snapshot_criteria(self, bench_snapshot_module):
        path = REPO_ROOT / "BENCH_obs.json"
        document = json.loads(path.read_text())
        assert bench_snapshot_module.validate_obs_snapshot(document) == []

        modes = document["modes"]
        baseline = document["baseline_mdps"]
        for row in modes.values():
            assert row["regression_vs_baseline"] == pytest.approx(
                1.0 - row["mdps"] / baseline, abs=1e-3
            )
        criteria = document["criteria"]
        assert criteria["disabled_max_regression"] == 0.02
        assert criteria["enabled_max_regression"] == 0.05
        assert modes["disabled"]["regression_vs_baseline"] < 0.02
        assert modes["enabled"]["regression_vs_baseline"] < 0.05
        assert criteria["pass"] is True

    def test_disabled_path_does_no_metric_work(self):
        # Structural zero-cost: with the default NullRegistry the SMB
        # carries no sink and the recording path takes the plain branch.
        assert isinstance(get_registry(), NullRegistry)
        assert SelfMorphingBitmap._obs_sink is None
        smb = SelfMorphingBitmap(
            memory_bits=4_000, design_cardinality=100_000, seed=0
        )
        assert smb._obs_sink is None
        smb.record_many(distinct_items(10_000, seed=1))
        assert smb._obs_sink is None

    def test_enabled_overhead_is_bounded_live(self, registry):
        # A generous live sanity bound (machine-noise tolerant): the
        # instrumented estimator keeps at least half the throughput of
        # the uninstrumented one. The strict 2%/5% criteria are pinned
        # by BENCH_obs.json above.
        items = distinct_items(200_000, seed=9)

        def run(attach: bool) -> float:
            best = float("inf")
            for _ in range(3):
                smb = SelfMorphingBitmap(
                    memory_bits=5_000, design_cardinality=1_000_000, seed=0
                )
                if attach:
                    smb.attach_metrics(SMBObserver(registry))
                start = time.perf_counter()
                smb.record_many(items)
                best = min(best, time.perf_counter() - start)
            return best

        # warm both paths once, then best-of-3 each
        run(False)
        disabled, enabled = run(False), run(True)
        assert enabled < 2.0 * disabled
