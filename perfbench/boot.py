"""Traced ``repro serve``: wrap layer entry points in spans, then serve.

Usage (the benchmark's traced run starts the server this way)::

    PYTHONPATH=src python perfbench/boot.py --spans-out FILE -- SERVE_ARGS

The bootstrap replaces each entry point below with a span-recording
wrapper of the original, from outside the program, and calls
``repro.serve.cli.serve_main``. Spans stay in memory; when the server
has drained and ``serve_main`` returns, they are written to ``FILE``
(``.npz``) with the facts read at shutdown in ``FILE.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time

import tracing

#: One event-loop lateness sample is taken every PROBE_PERIOD seconds.
PROBE_PERIOD = 0.001


def _size(value) -> int:
    return int(getattr(value, "size", len(value)))


def install(rec: tracing.Recorder, facts: dict) -> None:
    """Wrap every traced entry point; ``facts`` is filled at shutdown."""
    import repro.bitvector as bitvector
    import repro.core.smb as smb
    import repro.engine.partition as partition
    import repro.engine.pipeline as pipeline
    import repro.engine.recovery as recovery
    import repro.kernels.plane as plane
    import repro.serve.protocol as protocol
    import repro.serve.server as server
    import repro.serve.tenants as tenants
    from repro.wire import frame_info

    # serve.protocol
    protocol.decode_request = rec.wrap(
        "serve.protocol.decode_request", protocol.decode_request,
        count=lambda a, k, r: _size(r.keys) if hasattr(r, "keys") else 0,
        tag=lambda a, k, r: a[0][0],
    )
    protocol.FrameDecoder.feed = rec.wrap_generator(
        "serve.protocol.feed", protocol.FrameDecoder.feed,
        count=lambda a, k, r: len(a[1]),
    )

    # serve.server
    Server = server.CardinalityServer
    Server.handle_inline = rec.wrap(
        "serve.server.handle_inline", Server.handle_inline,
        tag=lambda a, k, r: a[1][0],
    )
    Server.handle = rec.wrap_async(
        "serve.server.handle", Server.handle, tag=lambda a, k, r: a[1][0]
    )
    server.encode_error = rec.wrap("serve.server.error_frame", server.encode_error)
    server.encode_sketch = rec.wrap(
        "wire.encode_sketch", server.encode_sketch,
        count=lambda a, k, r: len(r),
        tag=lambda a, k, r: frame_info(r).raw_bytes,
    )

    lags: list[float] = []
    probe_stop = threading.Event()
    probes: list[threading.Thread] = []
    original_start, original_stop = Server.start, Server.stop

    async def start(self, *args, **kwargs):
        bound = await original_start(self, *args, **kwargs)
        loop = self._loop

        def probe() -> None:
            def arrived(sent: float) -> None:
                lags.append(time.perf_counter() - sent)

            while not probe_stop.wait(PROBE_PERIOD):
                loop.call_soon_threadsafe(arrived, time.perf_counter())

        probes.append(threading.Thread(target=probe, name="lag-probe",
                                       daemon=True))
        probes[-1].start()
        return bound

    async def stop(self):
        probe_stop.set()
        for thread in probes:
            thread.join(1.0)
        submitted = self._record_totals()[0]
        facts.update(threads=threading.active_count(),
                     keys_submitted=submitted)
        final = await original_stop(self)
        times = os.times()
        facts.update(
            cpu_s=times.user + times.system
            + times.children_user + times.children_system,
            rounds=[
                int(shard.r)
                for pool in self.registry.pools.values()
                for shard in pool.shards
            ],
            loop_lag_s=lags,
        )
        return final

    Server.start, Server.stop = start, stop

    # serve.tenants
    tenants.TenantConfig.build_pool = rec.wrap(
        "serve.tenants.build_pool", tenants.TenantConfig.build_pool
    )
    tenants.TenantRegistry.to_bytes = rec.wrap(
        "serve.tenants.to_bytes", tenants.TenantRegistry.to_bytes,
        count=lambda a, k, r: len(r),
    )

    # engine.pipeline and the hashing entry point it binds
    Pipe = pipeline.IngestPipeline
    Pipe.submit = rec.wrap(
        "engine.pipeline.submit", Pipe.submit, count=lambda a, k, r: _size(a[1])
    )
    Pipe.drain = rec.wrap("engine.pipeline.drain", Pipe.drain)
    Pipe.query_live = rec.wrap("engine.pipeline.query_live", Pipe.query_live)
    pipeline.canonical_u64_array = rec.wrap(
        "hashing.canonical_u64_array", pipeline.canonical_u64_array,
        count=lambda a, k, r: _size(r),
    )

    # kernels
    Plane = plane.HashPlane

    def gathered(child) -> int:
        arrays = [child.values, *child._uniform.values(),
                  *child._geometric.values(), *child._positions.values()]
        return sum(array.nbytes for array in arrays)

    Plane.prefetch = rec.wrap(
        "kernels.prefetch", Plane.prefetch, count=lambda a, k, r: a[0].size
    )
    Plane.take = rec.wrap(
        "kernels.take", Plane.take, count=lambda a, k, r: _size(a[1]),
        tag=lambda a, k, r: gathered(r),
    )

    # engine.partition: per-shard key totals for the skew
    shard_keys: dict[int, int] = {}
    shard_lock = threading.Lock()  # submits of different tenants race
    facts["shard_keys"] = shard_keys
    Part = partition.Partitioner
    split_traced = rec.wrap(
        "engine.partition.split_plane", Part.split_plane,
        count=lambda a, k, r: a[1].size,
    )

    def split_plane(self, plane_):
        parts = split_traced(self, plane_)
        with shard_lock:
            for index, part in enumerate(parts):
                shard_keys[index] = shard_keys.get(index, 0) + part.size
        return parts

    Part.split_plane = split_plane

    # core.smb: Step-1 passes are the hash ops beyond one per arrival
    SMB = smb.SelfMorphingBitmap
    before = threading.local()
    record_traced = rec.wrap(
        "core.smb.record_plane", SMB._record_plane,
        count=lambda a, k, r: a[1].size,
        tag=lambda a, k, r: a[0].hash_ops - before.ops - a[1].size,
    )

    def _record_plane(self, plane_):
        before.ops = self.hash_ops
        return record_traced(self, plane_)

    SMB._record_plane = _record_plane
    SMB.query = rec.wrap("core.smb.query", SMB.query)

    # bitvector, engine.recovery
    bitvector.BitVector.set_many = rec.wrap(
        "bitvector.set_many", bitvector.BitVector.set_many,
        count=lambda a, k, r: _size(a[1]),
    )
    recovery.CheckpointManager.save = rec.wrap(
        "engine.recovery.save", recovery.CheckpointManager.save,
        count=lambda a, k, r: r.size,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from repro.serve.cli import serve_main

    rec = tracing.Recorder()
    facts: dict = {}
    install(rec, facts)
    code = serve_main(serve_args)
    rec.dump(args.spans_out, facts)
    return code


if __name__ == "__main__":
    sys.exit(main())
