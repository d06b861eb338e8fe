"""Sharded concurrent streaming ingestion engine.

The substrate that scales the estimators beyond a single-threaded
driver loop (see ``docs/architecture.md``, "Layer 5"):

- :mod:`repro.engine.partition` — deterministic hash partitioning of
  the item space into ``K`` disjoint shards;
- :mod:`repro.engine.shards` — :class:`ShardPool`, one estimator per
  shard with an *exactly additive* query (disjoint shards make shard
  sums unbiased even for non-mergeable SMB);
- :mod:`repro.engine.pipeline` — :class:`IngestPipeline`, chunked
  ingestion that hashes each chunk once and applies its per-shard
  sub-planes in the submitting thread, safe for many producers;
- :mod:`repro.engine.checkpoint` — atomic on-disk snapshot/restore of
  pools and estimators (write-to-temp + rename, CRC-validated);
- :mod:`repro.engine.recovery` — :class:`CheckpointManager` and
  :class:`RetryPolicy`, generation-rotated crash recovery on top of
  the checkpoint layer (CRC'd manifest, torn-generation fallback,
  orphan sweep, bounded retries with deterministic jitter).

Quickstart::

    from repro.engine import ShardPool, IngestPipeline, checkpoint

    pool = ShardPool.of("SMB", memory_bits=20_000, num_shards=4)
    with IngestPipeline(pool) as pipe:
        pipe.submit(batch)          # thread-safe, applied on return
        print(pipe.estimate())      # drain + additive shard-sum query
    checkpoint.save(pool, "pool.ckpt")
"""

from repro.engine import checkpoint
from repro.engine.partition import Partitioner
from repro.engine.pipeline import IngestPipeline
from repro.engine.recovery import (
    CheckpointManager,
    Generation,
    RecoveryError,
    RetryPolicy,
)
from repro.engine.shards import ShardPool

__all__ = [
    "CheckpointManager",
    "Generation",
    "IngestPipeline",
    "Partitioner",
    "RecoveryError",
    "RetryPolicy",
    "ShardPool",
    "checkpoint",
]
