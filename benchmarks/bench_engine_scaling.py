"""Engine scaling: shard-pool ingest throughput vs shard count.

Benchmarks the sharded ingestion engine (synchronous pool path and the
pipeline path) for SMB and HLL++ across shard counts, and asserts the
acceptance shape: at K=1 the pool adds no pathological overhead over
the bare estimator's ``record_many`` (the single-shard partitioner is
the identity and computes no routing hash at all).

Runnable standalone for the scaling report::

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py
    PYTHONPATH=src python benchmarks/bench_engine_scaling.py \\
        --json scaling.json --items 1000000

which prints Mdps per (estimator, shard count, path) and — with
``--json`` — writes the same rows machine-readable, including the
host's CPU count.
"""

import argparse
import json
import os
import time

import pytest

from repro.bench.runner import mdps, time_recording
from repro.engine import IngestPipeline, ShardPool

ESTIMATORS = ("SMB", "HLL++")
SHARD_COUNTS = (1, 2, 4, 8)
MEMORY_PER_SHARD = 5_000


def make_pool(name: str, num_shards: int, seed: int = 0) -> ShardPool:
    """A pool with the standard per-shard budget for these benchmarks."""
    return ShardPool.of(
        name,
        MEMORY_PER_SHARD * num_shards,
        num_shards,
        design_cardinality=1_000_000 * num_shards,
        seed=seed,
    )


@pytest.mark.benchmark(group="engine-pool-ingest")
@pytest.mark.parametrize("name", ESTIMATORS)
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_pool_ingest(benchmark, name, num_shards, items_1m):
    benchmark.pedantic(
        lambda pool: pool.record_many(items_1m),
        setup=lambda: ((make_pool(name, num_shards),), {}),
        rounds=3,
    )


@pytest.mark.benchmark(group="engine-pipeline-ingest")
@pytest.mark.parametrize("name", ESTIMATORS)
@pytest.mark.parametrize("num_shards", (1, 4))
def test_pipeline_ingest(benchmark, name, num_shards, items_1m):
    def run(pool):
        with IngestPipeline(pool) as pipe:
            pipe.submit(items_1m)

    benchmark.pedantic(
        run,
        setup=lambda: ((make_pool(name, num_shards),), {}),
        rounds=3,
    )


def test_single_shard_pool_matches_bare_estimator(items_1m):
    """Acceptance: K=1 pool ingest >= bare record_many, within noise.

    The single-shard pool computes no routing hash and delegates the
    whole batch, so its only cost is one Python-level indirection per
    ``record_many`` call; anything beyond 25% slower on a 1M-item batch
    is a regression.
    """
    from repro.bench.runner import make_estimator

    best_pool, best_bare = float("inf"), float("inf")
    for __ in range(3):  # best-of-3 to shake scheduler noise
        bare = make_estimator("SMB", MEMORY_PER_SHARD, 1_000_000, 0)
        warm_bare = make_estimator("SMB", MEMORY_PER_SHARD, 1_000_000, 0)
        best_bare = min(best_bare, time_recording(bare, items_1m, warm_bare))
        pool = make_pool("SMB", 1)
        warm_pool = make_pool("SMB", 1)
        best_pool = min(best_pool, time_recording(pool, items_1m, warm_pool))
    assert best_pool <= best_bare * 1.25


def test_sharded_estimates_stay_additive(items_100k):
    """The benchmark configuration really is exactly additive."""
    for name in ESTIMATORS:
        pool = make_pool(name, 4)
        pool.record_many(items_100k)
        assert pool.query() == sum(pool.shard_estimates())
        assert pool.query() == pytest.approx(items_100k.size, rel=0.1)


def time_pipeline(pool: ShardPool, items) -> float:
    """Seconds for one pipeline ingest of ``items`` (drain included)."""
    pipeline = IngestPipeline(pool)
    try:
        start = time.perf_counter()
        pipeline.submit(items)
        pipeline.drain()
        return time.perf_counter() - start
    finally:
        pipeline.close()


def measure_paths(items, estimators=ESTIMATORS, shard_counts=SHARD_COUNTS):
    """Mdps per (estimator, shard count, path) — the scaling rows.

    Paths: ``pool`` (synchronous ``record_many``) and ``pipeline``
    (:class:`IngestPipeline` over the same pool).
    """
    rows = []
    for name in estimators:
        for num_shards in shard_counts:
            sync_seconds = time_recording(make_pool(name, num_shards), items)
            pipe_seconds = time_pipeline(make_pool(name, num_shards), items)
            rows.append({
                "estimator": name,
                "shards": num_shards,
                "items": int(items.size),
                "pool_mdps": round(mdps(items.size, sync_seconds), 3),
                "pipeline_mdps": round(mdps(items.size, pipe_seconds), 3),
            })
    return rows


def main(argv=None) -> int:
    """Print Mdps per estimator, shard count and path; optional JSON."""
    from repro.bench.reporting import format_table
    from repro.streams import distinct_items

    parser = argparse.ArgumentParser(
        description="Engine ingest throughput vs shard count"
    )
    parser.add_argument(
        "--items", type=int, default=1_000_000,
        help="stream length per measurement (default: 1000000)",
    )
    parser.add_argument(
        "--json", metavar="FILE",
        help="also write the rows machine-readable to FILE",
    )
    args = parser.parse_args(argv)

    items = distinct_items(args.items, seed=7)
    # Warm NumPy's ufunc dispatch outside the measured region.
    make_pool("SMB", 2).record_many(items[:8192])
    rows = measure_paths(items)
    print(format_table(
        ["estimator", "shards", "pool Mdps", "pipeline Mdps"],
        [
            [row["estimator"], row["shards"], row["pool_mdps"],
             row["pipeline_mdps"]]
            for row in rows
        ],
        title=(
            f"Engine ingest throughput vs shard count "
            f"({args.items} items, {os.cpu_count()} CPUs)"
        ),
    ))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(
                {"cpu_count": os.cpu_count(), "results": rows},
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
