"""Unit tests of the ingestion engine: partitioning, pool, pipeline,
checkpointing and the ``repro engine`` CLI subcommand.

The deeper interleaving/restore behaviour is driven by the stateful
machine in ``test_engine_stateful.py``; the accuracy claim is pinned in
``test_engine_statistical.py``.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro import (
    HyperLogLogPlusPlus,
    IngestPipeline,
    Partitioner,
    SelfMorphingBitmap,
    ShardPool,
)
from repro.engine import checkpoint
from repro.streams import distinct_items


def smb_pool(num_shards=4, seed=0, m=1000, t=100):
    """A small SMB pool used across these tests."""
    return ShardPool(
        lambda k: SelfMorphingBitmap(m, threshold=t, seed=seed),
        num_shards,
        seed=seed,
    )


class TestPartitioner:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            Partitioner(0)

    def test_scalar_matches_vector(self):
        part = Partitioner(7, seed=3)
        values = distinct_items(5000, seed=1)
        ids = part.shard_ids(values)
        for value, shard in zip(values.tolist()[:500], ids.tolist()[:500]):
            assert part.shard_of(value) == shard

    def test_split_is_a_disjoint_cover(self):
        part = Partitioner(5, seed=2)
        values = distinct_items(10_000, seed=4)
        parts = part.split(values)
        assert len(parts) == 5
        assert sum(p.size for p in parts) == values.size
        assert set(np.concatenate(parts).tolist()) == set(values.tolist())

    def test_split_preserves_within_shard_order(self):
        part = Partitioner(3, seed=5)
        values = distinct_items(3000, seed=6)
        ids = part.shard_ids(values)
        for shard, sub in enumerate(part.split(values)):
            expected = values[ids == shard]
            assert np.array_equal(sub, expected)

    def test_single_shard_is_identity(self):
        part = Partitioner(1, seed=9)
        values = distinct_items(100, seed=7)
        [only] = part.split(values)
        assert np.array_equal(only, values)
        assert part.shard_of(12345) == 0

    def test_deterministic_across_instances(self):
        values = distinct_items(1000, seed=8)
        a = Partitioner(4, seed=11).shard_ids(values)
        b = Partitioner(4, seed=11).shard_ids(values)
        assert np.array_equal(a, b)

    def test_seed_changes_partition(self):
        values = distinct_items(1000, seed=8)
        a = Partitioner(4, seed=1).shard_ids(values)
        b = Partitioner(4, seed=2).shard_ids(values)
        assert not np.array_equal(a, b)

    def test_loads_are_balanced(self):
        part = Partitioner(8, seed=0)
        counts = [p.size for p in part.split(distinct_items(80_000, seed=9))]
        # Multinomial(80k, 1/8): each shard within ±5% of the mean.
        assert all(abs(c - 10_000) < 500 for c in counts)


class TestShardPool:
    def test_additivity_is_exact(self):
        # The pool estimate is *exactly* the sum of standalone estimators
        # fed the same sub-streams: the defining property of sharding.
        pool = smb_pool(num_shards=4, seed=7)
        items = distinct_items(8000, seed=10)
        pool.record_many(items)
        mirrors = [SelfMorphingBitmap(1000, threshold=100, seed=7)
                   for __ in range(4)]
        for shard, sub in zip(mirrors, pool.partitioner.split(items)):
            shard.record_many(sub)
        assert pool.query() == sum(m.query() for m in mirrors)
        assert pool.shard_estimates() == [m.query() for m in mirrors]

    def test_memory_is_summed(self):
        pool = smb_pool(num_shards=3)
        assert pool.memory_bits() == 3 * (1000 + 32)

    def test_factory_type_checked(self):
        with pytest.raises(TypeError):
            ShardPool(lambda k: object(), 2)

    def test_of_divides_budget(self):
        pool = ShardPool.of("HLL++", 20_000, 4, seed=1)
        assert pool.num_shards == 4
        assert all(isinstance(s, HyperLogLogPlusPlus) for s in pool.shards)
        assert pool.memory_bits() <= 20_000

    def test_counters_aggregate_and_reset(self):
        pool = smb_pool(num_shards=4)
        pool.record_many(distinct_items(2000, seed=12))
        assert pool.hash_ops > 2000  # routing + per-shard hashing
        pool.reset_counters()
        assert pool.hash_ops == 0
        assert all(s.hash_ops == 0 for s in pool.shards)

    def test_merge_requires_same_partition(self):
        a = ShardPool.of("HLL++", 4000, 4, seed=1)
        b = ShardPool.of("HLL++", 4000, 4, seed=2)  # different partition
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_unions_shard_wise(self):
        a = ShardPool.of("HLL++", 4000, 4, seed=1)
        b = ShardPool.of("HLL++", 4000, 4, seed=1)
        left = distinct_items(3000, seed=13)
        right = distinct_items(3000, seed=14)
        a.record_many(left)
        b.record_many(right)
        a.merge(b)
        union = ShardPool.of("HLL++", 4000, 4, seed=1)
        union.record_many(np.concatenate([left, right]))
        assert a.to_bytes() == union.to_bytes()

    def test_merged_collapses_to_single_sketch(self):
        pool = ShardPool.of("HLL++", 4000, 4, seed=1)
        items = distinct_items(5000, seed=15)
        pool.record_many(items)
        single = HyperLogLogPlusPlus(1000, seed=1)
        single.record_many(items)
        assert pool.merged().query() == single.query()

    def test_merged_smb_raises(self):
        pool = smb_pool(num_shards=2)
        pool.record_many(distinct_items(100, seed=16))
        with pytest.raises(NotImplementedError):
            pool.merged()

    def test_serialization_rejects_corruption(self):
        pool = smb_pool(num_shards=2)
        pool.record_many(distinct_items(500, seed=17))
        data = bytearray(pool.to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(ValueError):
            ShardPool.from_bytes(bytes(data))
        with pytest.raises(ValueError):
            ShardPool.from_bytes(pool.to_bytes()[:20])


class TestPipeline:
    def test_matches_synchronous_ingest(self):
        items = distinct_items(20_000, seed=18)
        sync = smb_pool(num_shards=4, seed=3)
        sync.record_many(items)
        piped = smb_pool(num_shards=4, seed=3)
        with IngestPipeline(piped, chunk_size=1024) as pipe:
            for start in range(0, items.size, 3000):
                pipe.submit(items[start:start + 3000])
            assert pipe.estimate() == sync.query()
        assert piped.to_bytes() == sync.to_bytes()
        assert piped.hash_ops == sync.hash_ops

    def test_submit_returns_count_and_tracks_total(self):
        pool = smb_pool(num_shards=2)
        with IngestPipeline(pool) as pipe:
            assert pipe.submit(distinct_items(100, seed=19)) == 100
            assert pipe.submit([1, 2, 3]) == 3
            pipe.drain()
        assert pipe.records_submitted == 103

    def test_accepts_mixed_item_types(self):
        pool = smb_pool(num_shards=2)
        with IngestPipeline(pool) as pipe:
            pipe.submit(["alice", "bob", b"carol", 7])
        assert pool.query() == pytest.approx(4, rel=0.5)

    def test_submit_after_close_raises(self):
        pool = smb_pool(num_shards=2)
        pipe = IngestPipeline(pool)
        pipe.close()
        with pytest.raises(RuntimeError):
            pipe.submit([1, 2, 3])

    def test_close_is_idempotent(self):
        pipe = IngestPipeline(smb_pool(num_shards=2))
        pipe.close()
        pipe.close()

    def test_rejects_bad_parameters(self):
        pool = smb_pool(num_shards=2)
        with pytest.raises(ValueError):
            IngestPipeline(pool, chunk_size=0)
        with pytest.raises(ValueError):
            IngestPipeline(pool, checkpoint_every=-1)

    def test_empty_submit_is_noop(self):
        pool = smb_pool(num_shards=2)
        with IngestPipeline(pool) as pipe:
            assert pipe.submit(np.array([], dtype=np.uint64)) == 0
            assert pipe.estimate() == pytest.approx(0.0, abs=1e-9)

    def test_failed_checkpoint_leaves_the_pause_gate_open(self):
        # A checkpoint that cannot run must not leave the pipeline
        # paused, or every later submit would park at the gate forever.
        pipe = IngestPipeline(smb_pool(num_shards=2))
        with pytest.raises(RuntimeError, match="no checkpoint_manager"):
            pipe.checkpoint_now()
        done = []

        def submit_then_close():
            done.append(pipe.submit([1, 2, 3]))
            pipe.close()
            done.append("closed")

        worker = threading.Thread(target=submit_then_close, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "submit or close parked at the gate"
        assert done == [3, "closed"]


    def test_close_waits_out_a_pause_and_refuses_later_ones(self):
        pipe = IngestPipeline(smb_pool(num_shards=2))
        entered = threading.Event()
        events = []

        def hold():
            with pipe.paused():
                events.append("paused")
                entered.set()
                time.sleep(0.2)
                events.append("released")

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert entered.wait(timeout=30)
        pipe.close()
        events.append("closed")
        holder.join(timeout=30)
        assert not holder.is_alive()
        assert events == ["paused", "released", "closed"]
        with pytest.raises(RuntimeError, match="closed"):
            with pipe.paused():
                pass


class TestCheckpoint:
    def test_roundtrip_pool(self, tmp_path):
        pool = smb_pool(num_shards=4, seed=5)
        pool.record_many(distinct_items(5000, seed=20))
        path = tmp_path / "pool.ckpt"
        written = checkpoint.save(pool, path)
        assert written == os.path.getsize(path)
        restored = checkpoint.load(path)
        assert isinstance(restored, ShardPool)
        assert restored.to_bytes() == pool.to_bytes()

    def test_restore_continues_identically(self, tmp_path):
        pool = smb_pool(num_shards=4, seed=5)
        pool.record_many(distinct_items(3000, seed=21))
        path = tmp_path / "pool.ckpt"
        checkpoint.save(pool, path)
        restored = checkpoint.load(path)
        extra = distinct_items(3000, seed=22)
        pool.record_many(extra)
        restored.record_many(extra)
        assert restored.query() == pool.query()
        assert restored.to_bytes() == pool.to_bytes()

    def test_roundtrip_bare_estimator(self, tmp_path):
        smb = SelfMorphingBitmap(800, threshold=80, seed=1)
        smb.record_many(distinct_items(1000, seed=23))
        path = tmp_path / "smb.ckpt"
        checkpoint.save(smb, path)
        restored = checkpoint.load(path)
        assert isinstance(restored, SelfMorphingBitmap)
        assert restored.query() == smb.query()

    def test_overwrite_is_atomic_no_temp_residue(self, tmp_path):
        pool = smb_pool(num_shards=2)
        path = tmp_path / "pool.ckpt"
        checkpoint.save(pool, path)
        pool.record_many(distinct_items(100, seed=24))
        checkpoint.save(pool, path)  # overwrite in place
        assert checkpoint.load(path).to_bytes() == pool.to_bytes()
        residue = [f for f in os.listdir(tmp_path)
                   if f.startswith(".checkpoint-")]
        assert residue == []

    def test_corruption_rejected(self, tmp_path):
        pool = smb_pool(num_shards=2)
        pool.record_many(distinct_items(500, seed=25))
        path = tmp_path / "pool.ckpt"
        checkpoint.save(pool, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload bit -> CRC mismatch
        (tmp_path / "bad.ckpt").write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="CRC"):
            checkpoint.load(tmp_path / "bad.ckpt")
        (tmp_path / "trunc.ckpt").write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            checkpoint.load(tmp_path / "trunc.ckpt")
        (tmp_path / "junk.ckpt").write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="magic"):
            checkpoint.load(tmp_path / "junk.ckpt")

    def test_unregistered_estimator_rejected(self):
        from repro import ExactCounter

        with pytest.raises(ValueError, match="not checkpointable"):
            checkpoint.save(ExactCounter(), "/tmp/never-written.ckpt")

    @pytest.mark.skipif(
        not hasattr(os, "umask") or not hasattr(os, "fchmod"),
        reason="needs POSIX umask/fchmod",
    )
    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_final_file_honors_process_umask(self, tmp_path, umask):
        """Regression: mkstemp's private 0600 used to leak through to
        the published checkpoint regardless of the process umask."""
        pool = smb_pool(num_shards=2)
        path = tmp_path / "pool.ckpt"
        previous = os.umask(umask)
        try:
            checkpoint.save(pool, path, sync_directory=False)
        finally:
            os.umask(previous)
        mode = os.stat(path).st_mode & 0o777
        assert mode == 0o666 & ~umask


class TestEngineCli:
    def test_engine_subcommand_runs(self, capsys):
        from repro.cli import main

        assert main([
            "engine", "--shards", "2", "--items", "5000",
            "--memory-bits", "4000",
        ]) == 0
        out = capsys.readouterr().out
        assert "records/sec" in out
        assert "estimate after" in out

    def test_checkpoint_restore_cycle(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "pool.ckpt")
        assert main([
            "engine", "--shards", "2", "--items", "2000",
            "--memory-bits", "4000", "--checkpoint", path,
        ]) == 0
        assert os.path.exists(path)
        assert main([
            "engine", "--restore", path, "--items", "1000", "--seed", "9",
        ]) == 0
        out = capsys.readouterr().out
        assert "restored" in out

    def test_duplicated_stream(self, capsys):
        from repro.cli import main

        assert main([
            "engine", "--shards", "2", "--items", "2000",
            "--memory-bits", "4000", "--duplication", "2.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "4,000" in out  # records ingested = 2x distinct

    def test_bad_arguments_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["engine", "--shards", "0"])
        with pytest.raises(SystemExit):
            main(["engine", "--duplication", "0.5"])

    def test_bad_recovery_arguments_rejected(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["engine", "--checkpoint-every", "100"])  # no dir
        with pytest.raises(SystemExit):
            main(["engine", "--resume"])  # no dir
        with pytest.raises(SystemExit):
            main(["engine", "--checkpoint-dir", str(tmp_path), "--keep", "0"])
        with pytest.raises(SystemExit):
            main([
                "engine", "--checkpoint-dir", str(tmp_path), "--resume",
                "--restore", str(tmp_path / "x.ckpt"),
            ])
        with pytest.raises(SystemExit, match="cannot resume"):
            main([
                "engine", "--checkpoint-dir", str(tmp_path / "empty"),
                "--resume",
            ])

    def test_checkpoint_dir_run_and_resume(self, tmp_path, capsys):
        from repro.cli import main
        from repro.engine.recovery import CheckpointManager

        directory = str(tmp_path / "ckpts")
        assert main([
            "engine", "--shards", "2", "--items", "6000",
            "--memory-bits", "6000", "--checkpoint-dir", directory,
            "--checkpoint-every", "2000", "--keep", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "checkpointed generation" in out
        manager = CheckpointManager(directory, sync_directory=False)
        generations = manager.generations()
        assert len(generations) == 2  # keep applied
        assert generations[-1].meta["records_ingested"] == 6000

        # Resuming a *finished* run ingests nothing and keeps the
        # estimate (the stream prefix is already checkpointed).
        assert main([
            "engine", "--shards", "2", "--items", "6000",
            "--memory-bits", "6000", "--checkpoint-dir", directory,
            "--resume",
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed generation" in out
        assert "records already ingested: 6000" in out

    @pytest.mark.parametrize(
        "offset", ["many", -5, True], ids=["string", "negative", "bool"]
    )
    def test_resume_refuses_a_bad_offset(self, tmp_path, offset):
        from repro.cli import main
        from repro.engine.recovery import CheckpointManager

        directory = str(tmp_path / "ckpts")
        CheckpointManager(directory, sync_directory=False).save(
            smb_pool(num_shards=2), meta={"records_ingested": offset}
        )
        with pytest.raises(SystemExit, match="cannot resume from .*ckpts: "):
            main([
                "engine", "--shards", "2", "--items", "2000",
                "--checkpoint-dir", directory, "--resume",
            ])


class _CountingSMB(SelfMorphingBitmap):
    """Test double: counts records actually applied via the plane path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.applied = 0

    def _record_plane(self, plane):
        super()._record_plane(plane)
        self.applied += plane.size


class _FailingSMB(_CountingSMB):
    """Test double: applies its first sub-batch, then always raises."""

    def _record_plane(self, plane):
        if self.applied > 0:
            raise RuntimeError("injected shard failure")
        super()._record_plane(plane)


class TestPipelineFailure:
    """Counter integrity and fast-fail when a shard apply fails."""

    def _failing_pool(self):
        return ShardPool(
            lambda k: _FailingSMB(1000, threshold=100, seed=0)
            if k == 0 else _CountingSMB(1000, threshold=100, seed=0),
            2,
            seed=0,
        )

    def test_failure_counters_balance_exactly(self):
        pool = self._failing_pool()
        pipe = IngestPipeline(pool, chunk_size=256)
        items = distinct_items(4000, seed=30)
        with pytest.raises(RuntimeError, match="injected shard failure"):
            pipe.submit(items)
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            pipe.close()
        # Fast-fail: shard 0 fails on the second chunk, so the submit
        # stopped there and counted only the two chunks it split.
        assert pipe.records_submitted == 512
        # Every submitted record was either fully applied or counted as
        # dropped -- the failing chunk drops all of its sub-planes,
        # since shard 0's comes first.
        applied = sum(shard.applied for shard in pool.shards)
        assert applied == pipe.records_applied == 256
        assert pipe.records_submitted == applied + pipe.records_dropped

    def test_submit_after_failure_enqueues_nothing(self):
        pool = smb_pool(num_shards=2)
        pipe = IngestPipeline(pool)
        pipe._errors.append(RuntimeError("injected"))
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            pipe.submit([1, 2, 3])
        assert pipe.records_submitted == 0
        assert pool.hash_ops == 0  # no routing ops billed either
        pipe._errors.clear()
        pipe.close()

    def test_healthy_run_has_no_drops(self):
        pool = smb_pool(num_shards=4)
        with IngestPipeline(pool) as pipe:
            pipe.submit(distinct_items(10_000, seed=31))
            pipe.drain()
        assert pipe.records_submitted == 10_000
        assert pipe.records_dropped == 0


class TestCheckpointStrictness:
    """Strict framing and durability of the checkpoint container."""

    def test_trailing_bytes_rejected(self, tmp_path):
        pool = smb_pool(num_shards=2)
        pool.record_many(distinct_items(500, seed=40))
        path = tmp_path / "pool.ckpt"
        checkpoint.save(pool, path)
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(path.read_bytes() + b"JUNKJUNK")
        with pytest.raises(ValueError, match="trailing"):
            checkpoint.load(padded)
        # The untouched original still loads.
        assert checkpoint.load(path).to_bytes() == pool.to_bytes()

    def test_truncated_class_name_rejected(self, tmp_path):
        # Empty meta and payload follow a name that claims 200 bytes.
        rest = b"\x00" * (
            checkpoint._META_LENGTH.size
            + checkpoint._PAYLOAD_LENGTH.size
            + checkpoint._CRC.size
        )
        bad = checkpoint._HEADER.pack(
            checkpoint._MAGIC, checkpoint._VERSION, 200
        ) + b"Short" + rest
        path = tmp_path / "badname.ckpt"
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="truncated class name"):
            checkpoint.load(path)

    def test_every_byte_is_under_the_crc(self, tmp_path):
        smb = SelfMorphingBitmap(64, threshold=8, seed=1)
        path = tmp_path / "smb.ckpt"
        checkpoint.save(smb, path, {"records_ingested": 7})
        data = path.read_bytes()
        for index in range(len(data)):
            flipped = bytearray(data)
            flipped[index] ^= 0x01
            path.write_bytes(bytes(flipped))
            with pytest.raises(ValueError):
                checkpoint.load(path)

    def test_version_1_container_refused(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        path.write_bytes(
            checkpoint._HEADER.pack(checkpoint._MAGIC, 1, 0) + b"\x00" * 12
        )
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            checkpoint.load(path)

    def test_meta_round_trips(self, tmp_path):
        pool = smb_pool(num_shards=2)
        path = tmp_path / "pool.ckpt"
        meta = {"records_ingested": 7, "note": "x"}
        checkpoint.save(pool, path, meta, sync_directory=False)
        restored, loaded = checkpoint.read(path)
        assert loaded == meta
        assert restored.to_bytes() == pool.to_bytes()
        checkpoint.save(pool, path, sync_directory=False)
        assert checkpoint.read(path)[1] == {}

    def test_pool_payload_trailing_bytes_rejected(self):
        pool = smb_pool(num_shards=2)
        pool.record_many(distinct_items(200, seed=41))
        data = pool.to_bytes()
        assert ShardPool.from_bytes(data).to_bytes() == data
        with pytest.raises(ValueError, match="trailing"):
            ShardPool.from_bytes(data + b"X")

    def test_pool_payload_truncated_name_rejected(self):
        import struct as _struct

        from repro.engine import shards as shards_module

        data = shards_module._HEADER.pack(
            shards_module._MAGIC, shards_module._VERSION, 1, 0
        ) + shards_module._SHARD_HEADER.pack(50, 10) + b"abc"
        with pytest.raises(ValueError, match="truncated shard class name"):
            ShardPool.from_bytes(data)

    def test_crash_before_replace_leaves_previous_loadable(
        self, tmp_path, monkeypatch
    ):
        pool = smb_pool(num_shards=2)
        pool.record_many(distinct_items(300, seed=42))
        path = tmp_path / "pool.ckpt"
        checkpoint.save(pool, path)
        before = path.read_bytes()
        pool.record_many(distinct_items(300, seed=43))

        def crash(src, dst):
            raise OSError("simulated crash between temp write and replace")

        monkeypatch.setattr(checkpoint.os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            checkpoint.save(pool, path)
        monkeypatch.undo()
        # Previous checkpoint intact and loadable; no temp residue.
        assert path.read_bytes() == before
        assert isinstance(checkpoint.load(path), ShardPool)
        residue = [f for f in os.listdir(tmp_path)
                   if f.startswith(".checkpoint-")]
        assert residue == []

    def test_sync_directory_optout_smoke(self, tmp_path):
        pool = smb_pool(num_shards=2)
        path = tmp_path / "pool.ckpt"
        written = checkpoint.save(pool, path, sync_directory=False)
        assert written == os.path.getsize(path)
        assert checkpoint.load(path).to_bytes() == pool.to_bytes()

    def test_directory_fsync_guard_swallows_unsupported(self, monkeypatch):
        calls = []

        def refuse(path, flags):
            calls.append(path)
            raise OSError("directories not openable here")

        monkeypatch.setattr(checkpoint.os, "open", refuse)
        checkpoint._fsync_directory(".")  # must not raise
        assert calls == ["."]
