"""Engine scaling: the shape claims of the sharded ingestion engine.

At K=1 the pool adds no pathological overhead over the bare
estimator's ``record_many`` (the single-shard partitioner is the
identity and computes no routing hash at all), and a K-shard pool's
estimate is exactly the sum of its shards'. Pool ingest throughput vs
shard count is written to ``BENCH_kernels.json``'s ``engine`` rows by
``tools/bench_snapshot.py kernels``.
"""

import pytest

from repro.bench.runner import time_recording
from repro.engine import ShardPool

ESTIMATORS = ("SMB", "HLL++")
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
