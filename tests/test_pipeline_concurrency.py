"""Regression: IngestPipeline under multi-threaded (executor) producers.

The serving layer calls :meth:`IngestPipeline.submit` through
``loop.run_in_executor``, i.e. from a *pool* of non-owner threads — the
regime where the original single-producer implementation raced:
unsynchronized counter ``+=`` could lose updates, and a periodic or
external :meth:`checkpoint_now` could drain while another producer was
half way through a chunk, capturing a mid-chunk state whose
metadata disagreed with the pool bytes.

These tests hammer submit against drain/checkpoint/close from an
asyncio event loop, exactly the way :mod:`repro.serve.server` drives
the pipeline, and assert the post-fix invariants:

- exact accounting: ``records_submitted`` equals the keys submitted,
  and ``submitted == applied + dropped`` at every drained safe point;
- quiesced checkpoints: externally requested checkpoints wait out
  every in-flight submit, so their ``records_submitted`` metadata is a
  whole multiple of the producer batch size, while periodic
  (submit-triggered) checkpoints are at least chunk-aligned — a torn
  capture would leave an unaligned remainder either way;
- submit-vs-close resolves deterministically (late submits raise,
  nothing deadlocks, accounting still balances);
- routing-hash accounting stays consistent with the record counters
  under concurrency (the two are billed together, per chunk);
- a pause is its pool's only user: no other pause and no submit's
  apply overlaps its body.
"""

import asyncio
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine.checkpoint import load
from repro.engine.pipeline import IngestPipeline
from repro.engine.recovery import CheckpointManager, RetryPolicy
from repro.engine.shards import ShardPool
from repro.estimators import Bitmap

PRODUCERS = 8
BATCHES_PER_PRODUCER = 12
BATCH = 2500  # five chunks per submitted batch
CHUNK = 500


def build_pool(num_shards: int = 1) -> ShardPool:
    return ShardPool.of(
        "Bitmap", 1 << 17, num_shards, design_cardinality=10**6, seed=3
    )


def manager(tmp_path) -> CheckpointManager:
    return CheckpointManager(
        tmp_path / "ckpts",
        keep=100,  # retain everything: the test inspects all generations
        sync_directory=False,
        orphan_grace=0.0,
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda s: None),
    )


def batch_for(producer: int, index: int) -> np.ndarray:
    base = (producer * BATCHES_PER_PRODUCER + index) * BATCH
    return np.arange(base, base + BATCH, dtype=np.uint64)


def test_executor_submits_with_interleaved_drains():
    """Hammer submit from executor threads while the loop drains."""
    pool = build_pool()
    total = PRODUCERS * BATCHES_PER_PRODUCER * BATCH

    async def scenario():
        loop = asyncio.get_running_loop()
        with IngestPipeline(pool, chunk_size=CHUNK) as pipe:

            def producer(index: int) -> None:
                for batch_index in range(BATCHES_PER_PRODUCER):
                    pipe.submit(batch_for(index, batch_index))

            submits = [
                loop.run_in_executor(None, producer, index)
                for index in range(PRODUCERS)
            ]
            # Interleave drains from yet another thread while producers
            # run — drain must never deadlock against active submits.
            for __ in range(5):
                await loop.run_in_executor(None, pipe.drain)
            await asyncio.gather(*submits)
            await loop.run_in_executor(None, pipe.drain)
            return (
                pipe.records_submitted,
                pipe.records_applied,
                pipe.records_dropped,
            )

    submitted, applied, dropped = asyncio.run(scenario())
    assert submitted == total  # no lost counter updates
    assert dropped == 0
    assert submitted == applied + dropped
    # Disjoint ranges: the pool saw every distinct key exactly once.
    assert abs(pool.query() - total) / total < 0.01


def test_quiesced_checkpoints_never_capture_mid_chunk(tmp_path):
    """Every generation's metadata is whole-batch aligned."""
    pool = build_pool()

    async def scenario():
        loop = asyncio.get_running_loop()
        with IngestPipeline(
            pool,
            chunk_size=CHUNK,
            checkpoint_manager=manager(tmp_path),
            # Several checkpoints fire from *inside* concurrent submits.
            checkpoint_every=4 * BATCH,
        ) as pipe:

            def producer(index: int) -> None:
                for batch_index in range(BATCHES_PER_PRODUCER):
                    pipe.submit(batch_for(index, batch_index))

            submits = [
                loop.run_in_executor(None, producer, index)
                for index in range(PRODUCERS)
            ]
            # And external checkpoints race them from the event loop.
            external = []
            for __ in range(3):
                external.append(
                    await loop.run_in_executor(None, pipe.checkpoint_now)
                )
            await asyncio.gather(*submits)
            external.append(
                await loop.run_in_executor(None, pipe.checkpoint_now)
            )
            return pipe.records_submitted, external

    submitted, external = asyncio.run(scenario())
    total = PRODUCERS * BATCHES_PER_PRODUCER * BATCH
    assert submitted == total
    assert external[-1].meta["records_submitted"] == total

    # External checkpoint_now() quiesces with zero in-flight submits:
    # its count is a sum of *completed* submits — a capture taken while
    # any producer was mid-batch would leave a BATCH-offset remainder.
    for generation in external:
        counted = generation.meta["records_submitted"]
        assert counted % BATCH == 0, (
            f"external generation {generation.generation} captured "
            f"mid-batch state: {counted}"
        )

    registry = manager(tmp_path)
    generations = registry.generations()
    assert len(generations) >= 5  # periodic + external + final
    for generation in generations:
        assert "records_submitted" in generation.meta, generation
        counted = generation.meta["records_submitted"]
        # Periodic checkpoints fire from inside the triggering submit
        # (one allowed in flight), so they are chunk-aligned, never
        # torn mid-chunk.
        assert counted % CHUNK == 0, (
            f"generation {generation.generation} captured mid-chunk "
            f"state: {counted}"
        )

    # The final generation's bytes agree with its own metadata: the
    # restored pool holds exactly the counted (disjoint) records.
    restored = load(external[-1].path)
    assert abs(restored.query() - total) / total < 0.01
    assert restored.to_bytes() == pool.to_bytes()


def test_submit_vs_close_hammer():
    """Racing close() against executor submits stays deterministic."""
    for round_index in range(4):
        pool = build_pool()
        pipe = IngestPipeline(pool, chunk_size=CHUNK)

        async def scenario():
            loop = asyncio.get_running_loop()
            outcomes = []

            def producer(index: int) -> None:
                for batch_index in range(BATCHES_PER_PRODUCER):
                    try:
                        pipe.submit(batch_for(index, batch_index))
                        outcomes.append(BATCH)
                    except RuntimeError:
                        outcomes.append(0)  # closed underneath us: allowed
                        return

            submits = [
                loop.run_in_executor(None, producer, index)
                for index in range(PRODUCERS)
            ]
            # Let some work land, then slam the door mid-stream.
            await asyncio.sleep(0.01 * round_index)
            await loop.run_in_executor(None, pipe.close)
            await asyncio.gather(*submits)
            return sum(outcomes)

        accepted = asyncio.run(scenario())
        # Everything accepted was applied before close() returned and
        # counted exactly once.
        assert pipe.records_submitted == accepted
        assert (
            pipe.records_submitted
            == pipe.records_applied + pipe.records_dropped
        )
        with pytest.raises(RuntimeError):
            pipe.submit(np.arange(10, dtype=np.uint64))


def test_routing_accounting_under_concurrency():
    """records_submitted and _route_hash_ops advance in lockstep."""
    pool = build_pool(num_shards=4)

    async def scenario():
        loop = asyncio.get_running_loop()
        with IngestPipeline(pool, chunk_size=CHUNK) as pipe:

            def producer(index: int) -> None:
                for batch_index in range(BATCHES_PER_PRODUCER):
                    pipe.submit(batch_for(index, batch_index))

            await asyncio.gather(
                *(
                    loop.run_in_executor(None, producer, index)
                    for index in range(PRODUCERS)
                )
            )
            pipe.drain()
            return pipe.records_submitted

    submitted = asyncio.run(scenario())
    assert submitted == PRODUCERS * BATCHES_PER_PRODUCER * BATCH
    # One routing hash per submitted record, despite 8-way contention on
    # the shared counters (they are billed together, under one lock).
    assert pool._route_hash_ops == submitted


class _RacyBitmap(Bitmap):
    """Counts applied keys with a read, a GIL release and a write: two
    overlapping applies to one shard lose an update."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.applied = 0

    def _record_plane(self, plane):
        seen = self.applied
        time.sleep(0)
        super()._record_plane(plane)
        self.applied = seen + plane.size


def test_contended_submits_equal_synchronous_ingest():
    """Producers share the shards under the pipeline's one lock (it
    also guards the counters and lifecycle): no apply overlaps another
    on one shard, and the pool ends bit-identical to one synchronous
    ingest of every key (Bitmap state does not depend on arrival
    order)."""

    def racy_pool() -> ShardPool:
        return ShardPool(lambda index: _RacyBitmap(1 << 15, seed=3), 4, seed=3)

    pool, oracle = racy_pool(), racy_pool()
    with IngestPipeline(pool, chunk_size=CHUNK) as pipe:
        with ThreadPoolExecutor(PRODUCERS) as executor:
            futures = [
                executor.submit(
                    lambda index: [
                        pipe.submit(batch_for(index, batch_index))
                        for batch_index in range(BATCHES_PER_PRODUCER)
                    ],
                    index,
                )
                for index in range(PRODUCERS)
            ]
            for future in futures:
                future.result(timeout=60)
    for index in range(PRODUCERS):
        for batch_index in range(BATCHES_PER_PRODUCER):
            oracle.record_many(batch_for(index, batch_index))
    total = PRODUCERS * BATCHES_PER_PRODUCER * BATCH
    assert sum(shard.applied for shard in pool.shards) == total
    assert pipe.records_submitted == pipe.records_applied == total
    assert pool.to_bytes() == oracle.to_bytes()


def test_pauses_exclude_each_other_and_every_submit():
    """Pausers and producers on more threads than cores, with a short
    switch interval: inside a pause no other pause runs and no submit
    applies, and every key still lands exactly once."""
    pool = build_pool(num_shards=4)
    pipe = IngestPipeline(pool, chunk_size=CHUNK)
    holders: list[int] = []  # pause bodies running right now
    overlaps: list[int] = []

    def pauser(index: int) -> None:
        for __ in range(BATCHES_PER_PRODUCER):
            with pipe.paused():
                holders.append(index)
                submitted = pipe.records_submitted
                time.sleep(0)  # invite any other thread in
                if len(holders) > 1 or pipe.records_submitted != submitted:
                    overlaps.append(index)
                holders.remove(index)

    def producer(index: int) -> None:
        for batch_index in range(BATCHES_PER_PRODUCER):
            pipe.submit(batch_for(index, batch_index))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2 * PRODUCERS) as executor:
            futures = [
                executor.submit(work, index)
                for index in range(PRODUCERS)
                for work in (producer, pauser)
            ]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    pipe.close()
    assert overlaps == []
    oracle = build_pool(num_shards=4)
    for index in range(PRODUCERS):
        for batch_index in range(BATCHES_PER_PRODUCER):
            oracle.record_many(batch_for(index, batch_index))
    assert pool.to_bytes() == oracle.to_bytes()
    with pytest.raises(RuntimeError, match="closed"):
        with pipe.paused():
            pass
