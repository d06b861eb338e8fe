"""In-process stack baseline: the bulk stream fed below the server.

One producer feeds the first bulk tenant's stream, frame by frame, to
a bare ``SelfMorphingBitmap`` of the tenant's whole memory, to the
tenant's 4-shard ``ShardPool`` and to an ``IngestPipeline`` over such a
pool. The three rates are the reference for ``ingest_mkeys_s``: ROADMAP
item 2 states its targets (serve >= 50% of bare SMB, a K-shard pool
within 1.5x of it) as ratios of them.
"""

from __future__ import annotations

import time

import traffic

MEMORY_BITS = 10_000
SHARDS = 4
DESIGN = 1 << 24


def baseline(seed: int, seconds: int) -> dict[str, tuple[float, str]]:
    from repro import IngestPipeline, SelfMorphingBitmap, ShardPool

    stream = traffic.bulk_streams(seconds)[0]
    frames = [stream.keys(seed, index) for index in range(stream.frames)]
    keys = sum(frame.size for frame in frames)

    def rate(sink, finish=None) -> tuple[float, str]:
        began = time.perf_counter()
        for frame in frames:
            sink(frame)
        if finish is not None:
            finish()
        return keys / (time.perf_counter() - began) / 1e6, "Mkeys/s"

    def pool():
        return ShardPool.of("SMB", MEMORY_BITS, SHARDS,
                            design_cardinality=DESIGN, seed=seed)

    bare = SelfMorphingBitmap(MEMORY_BITS, design_cardinality=DESIGN,
                              seed=seed)
    pipeline = IngestPipeline(pool())
    return {
        "stack.bare_smb_mkeys_s": rate(bare.record_many),
        "stack.pool_mkeys_s": rate(pool().record_many),
        "stack.pipeline_mkeys_s": rate(pipeline.submit, pipeline.close),
    }
