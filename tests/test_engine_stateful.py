"""Stateful model-based testing of the sharded ingestion engine.

A hypothesis RuleBasedStateMachine drives a ShardPool of SMB shards
through arbitrary interleavings of scalar ingest, batch ingest,
pipelined ingest, duplicate replays, checkpoint/restore cycles and
queries, checking after every step against:

- **mirror shards**: standalone SelfMorphingBitmap estimators fed the
  same partitioned sub-streams sequentially. The pool must match their
  shard-sum *exactly* (bit-for-bit serialized state), which proves both
  the additive-query claim and that checkpoint → restore → continue
  behaves identically to an uninterrupted run (the mirrors are the
  uninterrupted run: they are never checkpointed).
- **an exact oracle**: a Python set of canonical values, pinning
  duplicate-insensitivity at the pool level and a loose sanity envelope
  on the estimate.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import IngestPipeline, SelfMorphingBitmap, ShardPool
from repro.engine import checkpoint
from repro.hashing import canonical_u64

M, T = 256, 24


class EngineMachine(RuleBasedStateMachine):
    """Drives pool + pipeline + checkpointing against mirrors/oracle."""

    @initialize(
        seed=st.integers(0, 1000), num_shards=st.sampled_from([1, 2, 4])
    )
    def setup(self, seed, num_shards):
        """Build the pool, its mirror shards, and the exact oracle."""
        self.seed = seed
        self.num_shards = num_shards
        self.pool = ShardPool(
            lambda k: SelfMorphingBitmap(M, threshold=T, seed=seed),
            num_shards,
            seed=seed,
        )
        self.mirrors = [
            SelfMorphingBitmap(M, threshold=T, seed=seed)
            for __ in range(num_shards)
        ]
        self.oracle: set[int] = set()
        self.recorded: list[int] = []

    def _mirror_record(self, values):
        """Feed the mirrors the same partitioned sub-streams, in order."""
        for value in values:
            canonical = canonical_u64(value)
            shard = self.pool.partitioner.shard_of(canonical)
            self.mirrors[shard].record(canonical)
            self.oracle.add(canonical)
        self.recorded.extend(values)

    @rule(value=st.integers(0, 2**64 - 1))
    def ingest_scalar(self, value):
        """One item through the scalar path."""
        self.pool.record(value)
        self._mirror_record([value])

    @rule(values=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
    def ingest_batch(self, values):
        """A batch through the vectorized path."""
        self.pool.record_many(np.asarray(values, dtype=np.uint64))
        self._mirror_record(values)

    @rule(values=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
    def ingest_pipelined(self, values):
        """A batch through the concurrent producer/consumer pipeline."""
        with IngestPipeline(self.pool, chunk_size=64) as pipe:
            pipe.submit(np.asarray(values, dtype=np.uint64))
        self._mirror_record(values)

    @rule()
    def replay_duplicates(self):
        """Theorem 2 at pool level: replays must not change anything."""
        if not self.recorded:
            return
        replay = self.recorded[:: max(1, len(self.recorded) // 16)]
        before = self.pool.to_bytes()
        self.pool.record_many(np.asarray(replay, dtype=np.uint64))
        assert self.pool.to_bytes() == before

    @rule()
    def checkpoint_restore(self):
        """Atomic snapshot, then continue from the restored pool."""
        import tempfile
        import os

        descriptor, path = tempfile.mkstemp(prefix="engine-ckpt-")
        os.close(descriptor)
        try:
            checkpoint.save(self.pool, path)
            restored = checkpoint.load(path)
        finally:
            os.unlink(path)
        assert restored.to_bytes() == self.pool.to_bytes()
        self.pool = restored  # all further ingest hits the restored pool

    @rule()
    def serialize_roundtrip(self):
        """In-memory to_bytes/from_bytes roundtrip mid-stream."""
        self.pool = ShardPool.from_bytes(self.pool.to_bytes())

    @invariant()
    def pool_matches_mirror_shards(self):
        """Shard-sum == sum of standalone estimators, bit for bit."""
        if not hasattr(self, "pool"):
            return
        assert self.pool.query() == sum(m.query() for m in self.mirrors)
        for shard, mirror in zip(self.pool.shards, self.mirrors):
            assert shard.to_bytes() == mirror.to_bytes()

    @invariant()
    def estimate_sane_against_oracle(self):
        """Loose envelope: non-negative, zero iff empty, bounded above."""
        if not hasattr(self, "pool"):
            return
        n = len(self.oracle)
        estimate = self.pool.query()
        if n == 0:
            assert estimate == 0.0
        else:
            assert estimate >= 0.0
            saturated = all(
                getattr(s, "saturated", False) for s in self.pool.shards
            )
            if not saturated:
                # Generous statistical envelope; tight accuracy is pinned
                # deterministically in test_engine_statistical.py.
                assert estimate <= 8.0 * n + 64


TestEngineMachine = EngineMachine.TestCase
TestEngineMachine.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
