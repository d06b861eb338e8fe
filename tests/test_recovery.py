"""Crash-recovery subsystem: rotation, the directory index, fallback,
retries.

The fault matrix drives every checkpoint crash window through
:class:`~repro.engine.recovery.CheckpointManager` — real generations
written by the real save path, then torn exactly at the armed window —
and asserts the recovery invariant: *each window leaves either the
previous generation or the new one loadable, with its own metadata*.
"""

import errno
import os
import shutil
import threading

import pytest

from repro.core.smb import SelfMorphingBitmap
from repro.engine import checkpoint
from repro.engine.recovery import (
    TRANSIENT_ERRNOS,
    CheckpointManager,
    RecoveryError,
    RetryPolicy,
)
from repro.obs import MetricsRegistry, set_registry
from repro.obs.metrics import NullRegistry
from repro.serve.tenants import TenantConfig, TenantRegistry
from repro.streams import distinct_items
from repro.testing.faults import InjectedFault, fault_plan


def make_smb(n=0, m=4000, t=400, seed=0):
    """A small SMB with ``n`` distinct items recorded."""
    smb = SelfMorphingBitmap(m, threshold=t, seed=seed)
    if n:
        smb.record_many(distinct_items(n, seed=seed + 1))
    return smb


def manager(tmp_path, **kwargs):
    """A test manager: no directory fsync, no orphan grace delays."""
    kwargs.setdefault("sync_directory", False)
    kwargs.setdefault("orphan_grace", 0.0)
    return CheckpointManager(tmp_path / "ckpts", **kwargs)


class TestRetryPolicy:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)

    def test_delays_are_deterministic_and_bounded(self):
        a = RetryPolicy(base_delay=0.01, max_delay=0.1, jitter=0.25, seed=7)
        b = RetryPolicy(base_delay=0.01, max_delay=0.1, jitter=0.25, seed=7)
        delays_a = [a.delay(k) for k in range(8)]
        delays_b = [b.delay(k) for k in range(8)]
        assert delays_a == delays_b  # same seed -> identical schedule
        for delay in delays_a:
            assert 0 <= delay <= 0.1 * 1.25
        # Jitter actually perturbs (not all equal to the raw backoff).
        raw = [min(0.1, 0.01 * 2.0 ** k) for k in range(8)]
        assert delays_a != raw

    def test_seed_changes_jitter(self):
        a = RetryPolicy(seed=1)
        b = RetryPolicy(seed=2)
        assert [a.delay(k) for k in range(4)] != [b.delay(k) for k in range(4)]

    def test_zero_jitter_is_pure_backoff(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0,
                             max_delay=1.0, jitter=0.0)
        assert policy.delay(0) == 0.01
        assert policy.delay(1) == 0.02
        assert policy.delay(10) == 1.0  # capped

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_transient(OSError(errno.EINTR, "interrupted"))
        assert policy.is_transient(OSError(errno.EAGAIN, "again"))
        assert not policy.is_transient(OSError(errno.ENOSPC, "full"))
        assert not policy.is_transient(OSError(errno.EACCES, "denied"))
        assert not policy.is_transient(ValueError("corrupt"))
        assert policy.is_transient(InjectedFault("checkpoint.pre-fsync",
                                                 transient=True))
        assert not policy.is_transient(InjectedFault("checkpoint.pre-fsync"))
        assert errno.EINTR in TRANSIENT_ERRNOS

    def test_transient_errors_retry_then_succeed(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=4, base_delay=0.01,
                             sleep=sleeps.append)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError(errno.EAGAIN, "not yet")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3
        assert sleeps == [policy.delay(0), policy.delay(1)]

    def test_fatal_error_never_retries(self):
        policy = RetryPolicy(max_attempts=5, sleep=lambda s: None)
        attempts = []

        def broken():
            attempts.append(1)
            raise ValueError("corrupt")

        with pytest.raises(ValueError):
            policy.call(broken)
        assert len(attempts) == 1

    def test_attempts_are_bounded(self):
        policy = RetryPolicy(max_attempts=3, sleep=lambda s: None)
        attempts = []

        def always_busy():
            attempts.append(1)
            raise OSError(errno.EBUSY, "busy")

        with pytest.raises(OSError):
            policy.call(always_busy)
        assert len(attempts) == 3

    def test_on_retry_hook_sees_each_retry(self):
        seen = []
        policy = RetryPolicy(max_attempts=3, sleep=lambda s: None)
        with pytest.raises(OSError):
            policy.call(
                lambda: (_ for _ in ()).throw(OSError(errno.EINTR, "x")),
                on_retry=lambda attempt, error: seen.append(attempt),
            )
        assert seen == [1, 2]


class TestRotation:
    def test_generations_rotate_with_keep(self, tmp_path):
        mgr = manager(tmp_path, keep=2)
        for n in (100, 200, 300, 400, 500):
            mgr.save(make_smb(n), meta={"n": n})
        generations = mgr.generations()
        assert [g.generation for g in generations] == [4, 5]
        assert [g.meta["n"] for g in generations] == [400, 500]
        on_disk = sorted(
            name for name in os.listdir(mgr.directory)
            if name.startswith("ckpt-")
        )
        assert on_disk == ["ckpt-00000004.rpck", "ckpt-00000005.rpck"]

    def test_load_latest_returns_newest(self, tmp_path):
        mgr = manager(tmp_path)
        mgr.save(make_smb(100), meta={"n": 100})
        mgr.save(make_smb(250), meta={"n": 250})
        estimator, generation = mgr.load_latest()
        assert generation.generation == 2
        assert generation.meta == {"n": 250}
        reference = make_smb(250)
        assert estimator.to_bytes() == reference.to_bytes()

    def test_generation_numbers_survive_manager_restart(self, tmp_path):
        manager(tmp_path).save(make_smb(10))
        mgr = manager(tmp_path)  # fresh manager over the same directory
        generation = mgr.save(make_smb(20))
        assert generation.generation == 2

    def test_keep_validated(self, tmp_path):
        with pytest.raises(ValueError):
            manager(tmp_path, keep=0)

    def test_empty_directory_raises_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError, match="no generations found"):
            manager(tmp_path).load_latest()

    def test_concurrent_saves_get_distinct_generations(self, tmp_path):
        mgr = manager(tmp_path, keep=16)
        errors = []

        def worker(seed):
            try:
                for __ in range(4):
                    mgr.save(make_smb(50, seed=seed))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        generations = mgr.generations()
        assert [g.generation for g in generations] == list(range(1, 17))
        estimator, __ = mgr.load_latest()
        assert estimator is not None


class TestDirectoryIndex:
    """Each generation file carries its own metadata; the directory
    listing is the only index."""

    def test_meta_travels_with_the_file(self, tmp_path):
        mgr = manager(tmp_path)
        generation = mgr.save(make_smb(100), meta={"records": 100})
        moved = tmp_path / "moved"
        os.makedirs(moved)
        shutil.copy(generation.path, moved)
        estimator, loaded = CheckpointManager(
            moved, sync_directory=False
        ).load_latest()
        assert loaded.generation == 1
        assert loaded.meta == {"records": 100}
        assert loaded.size == generation.size
        assert estimator.to_bytes() == make_smb(100).to_bytes()

    def test_torn_generation_is_listed_without_meta(self, tmp_path):
        mgr = manager(tmp_path)
        mgr.save(make_smb(100), meta={"n": 100})
        newest = mgr.save(make_smb(250), meta={"n": 250})
        with open(newest.path, "r+b") as handle:
            handle.truncate(newest.size - 1)
        assert [(g.generation, g.meta) for g in mgr.generations()] == [
            (1, {"n": 100}), (2, {}),
        ]
        assert mgr.generations()[1].size == newest.size - 1
        __, generation = mgr.load_latest()
        assert (generation.generation, generation.meta) == (1, {"n": 100})
        # Numbering continues past every file on disk, torn or not.
        assert mgr.save(make_smb(300)).generation == 3

    def test_generations_read_only_the_metadata(self, tmp_path, monkeypatch):
        mgr = manager(tmp_path)
        registry = TenantRegistry(TenantConfig(
            estimator="SMB", memory_bits=2_000, shards=2,
            design_cardinality=100_000, seed=3,
        ))
        for index in range(3):
            registry.record_many(f"t{index}", distinct_items(500, seed=index))
            mgr.save(registry, meta={"records": 500 * (index + 1)})
        listed = [(g.generation, g.size, g.meta) for g in mgr.generations()]
        assert [meta for __, __, meta in listed] == [
            {"records": 500}, {"records": 1000}, {"records": 1500},
        ]

        def refuse(cls, data):
            raise ValueError("generations() restored an estimator")

        monkeypatch.setattr(TenantRegistry, "from_bytes", classmethod(refuse))
        assert [
            (g.generation, g.size, g.meta) for g in mgr.generations()
        ] == listed
        # The meta is still read under the frame's CRC.
        with open(mgr.generations()[-1].path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
        assert [g.meta for g in mgr.generations()] == [
            {"records": 500}, {"records": 1000}, {},
        ]

    def test_deleted_generation_is_not_listed(self, tmp_path):
        mgr = manager(tmp_path)
        first = mgr.save(make_smb(100))
        mgr.save(make_smb(200))
        os.unlink(first.path)  # a crashed rotation's half-prune
        assert [g.generation for g in mgr.generations()] == [2]
        assert mgr.load_latest()[1].generation == 2

    @pytest.mark.parametrize(
        "operation", ["save", "load_latest", "generations"]
    )
    def test_stray_manifest_is_never_read(self, tmp_path, operation):
        mgr = manager(tmp_path)
        mgr.save(make_smb(100), meta={"n": 100})
        with open(os.path.join(mgr.directory, "MANIFEST.json"), "w") as handle:
            handle.write("[" * 200_000)
        if operation == "save":
            assert mgr.save(make_smb(200)).generation == 2
        elif operation == "load_latest":
            __, generation = mgr.load_latest()
            assert (generation.generation, generation.meta) == (1, {"n": 100})
        else:
            assert [(g.generation, g.meta) for g in mgr.generations()] == [
                (1, {"n": 100}),
            ]

    def test_only_generation_names_are_indexed(self, tmp_path):
        mgr = manager(tmp_path)
        for name in (
            "ckpt-00000000.rpck", "ckpt-7.rpck", "ckpt-00000009.rpck~",
            "ckpt-00000009.rpck\n",
        ):
            with open(os.path.join(mgr.directory, name), "wb") as handle:
                handle.write(b"not a generation")
        assert mgr.save(make_smb(100)).generation == 1
        assert [g.generation for g in mgr.generations()] == [1]
        assert mgr.load_latest()[1].generation == 1


class TestFallbackFaultMatrix:
    """checkpoint.load recovery paths, driven through the manager."""

    def _two_generations(self, tmp_path):
        mgr = manager(tmp_path)
        mgr.save(make_smb(100), meta={"n": 100})
        newest = mgr.save(make_smb(250), meta={"n": 250})
        return mgr, newest

    def test_torn_header_falls_back(self, tmp_path):
        mgr, newest = self._two_generations(tmp_path)
        with open(newest.path, "r+b") as handle:
            handle.write(b"XXXX")  # clobber the magic
        estimator, generation = mgr.load_latest()
        assert generation.generation == 1
        assert estimator.to_bytes() == make_smb(100).to_bytes()

    def test_truncated_payload_falls_back(self, tmp_path):
        mgr, newest = self._two_generations(tmp_path)
        size = os.path.getsize(newest.path)
        with open(newest.path, "r+b") as handle:
            handle.truncate(size // 2)
        estimator, generation = mgr.load_latest()
        assert generation.generation == 1

    def test_zero_length_file_falls_back(self, tmp_path):
        mgr, newest = self._two_generations(tmp_path)
        with open(newest.path, "wb"):
            pass
        __, generation = mgr.load_latest()
        assert generation.generation == 1

    def test_crc_flip_falls_back(self, tmp_path):
        mgr, newest = self._two_generations(tmp_path)
        with open(newest.path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
        __, generation = mgr.load_latest()
        assert generation.generation == 1

    def test_all_generations_torn_raises(self, tmp_path):
        mgr, newest = self._two_generations(tmp_path)
        for generation in mgr.generations():
            with open(generation.path, "wb"):
                pass
        with pytest.raises(RecoveryError, match="no loadable checkpoint"):
            mgr.load_latest()

    def test_pre_fsync_fault_leaves_previous_generation(self, tmp_path):
        """Crash window 1: temp written, fsync pending -> old gen intact."""
        mgr, newest = self._two_generations(tmp_path)
        with fault_plan() as plan:
            plan.arm("checkpoint.pre-fsync")
            with pytest.raises(InjectedFault):
                mgr.save(make_smb(999))
        estimator, generation = mgr.load_latest()
        assert generation.generation == 2
        assert estimator.to_bytes() == make_smb(250).to_bytes()
        # The failed save's temp file was cleaned by the error path.
        residue = [
            name for name in os.listdir(mgr.directory)
            if name.startswith(checkpoint.TEMP_PREFIX)
        ]
        assert residue == []

    def test_post_replace_fault_keeps_new_generation(self, tmp_path):
        """Crash window 2: rename landed -> the new file must load."""
        mgr, __ = self._two_generations(tmp_path)
        with fault_plan() as plan:
            plan.arm("checkpoint.post-replace")
            with pytest.raises(InjectedFault):
                mgr.save(make_smb(999), meta={"n": 999})
        estimator, generation = mgr.load_latest()
        assert generation.generation == 3
        assert generation.meta == {"n": 999}  # published with the state
        assert estimator.to_bytes() == make_smb(999).to_bytes()
        # The next save after the crash continues the sequence.
        assert mgr.save(make_smb(50)).generation == 4

    def test_transient_fault_is_retried_to_success(self, tmp_path):
        sleeps = []
        mgr = manager(
            tmp_path,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0,
                              jitter=0.0, sleep=sleeps.append),
        )
        with fault_plan() as plan:
            plan.arm("checkpoint.pre-fsync", times=2, transient=True)
            generation = mgr.save(make_smb(100))
            assert plan.hits("checkpoint.pre-fsync") == 3
        assert generation.generation == 1
        assert len(sleeps) == 2
        assert mgr.load_latest()[1].generation == 1

    def test_transient_fault_exhausts_attempts(self, tmp_path):
        mgr = manager(
            tmp_path,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0,
                              sleep=lambda s: None),
        )
        with fault_plan() as plan:
            plan.arm("checkpoint.pre-fsync", times=5, transient=True)
            with pytest.raises(InjectedFault):
                mgr.save(make_smb(100))
            assert plan.hits("checkpoint.pre-fsync") == 2


class TestOrphanSweep:
    def _plant_orphan(self, directory, name=".checkpoint-orphan", age=120.0):
        path = os.path.join(directory, name)
        with open(path, "wb") as handle:
            handle.write(b"half-written")
        stamp = os.path.getmtime(path) - age
        os.utime(path, (stamp, stamp))
        return path

    def test_startup_sweep_removes_stale_orphans(self, tmp_path):
        directory = tmp_path / "ckpts"
        os.makedirs(directory)
        path = self._plant_orphan(directory)
        CheckpointManager(directory, orphan_grace=60.0,
                          sync_directory=False)
        assert not os.path.exists(path)

    def test_fresh_temp_files_survive_grace(self, tmp_path):
        """A live concurrent saver's temp file must not be swept."""
        directory = tmp_path / "ckpts"
        os.makedirs(directory)
        path = self._plant_orphan(directory, age=0.0)
        mgr = CheckpointManager(directory, orphan_grace=3600.0,
                                sync_directory=False)
        assert os.path.exists(path)
        assert mgr.sweep_orphans() == 0

    def test_sweep_counts_and_ignores_real_files(self, tmp_path):
        mgr = manager(tmp_path, orphan_grace=0.0)
        generation = mgr.save(make_smb(100))
        self._plant_orphan(mgr.directory, ".checkpoint-a")
        self._plant_orphan(mgr.directory, ".checkpoint-b")
        assert mgr.sweep_orphans() == 2
        assert os.path.exists(generation.path)

    def test_orphan_grace_validated(self, tmp_path):
        with pytest.raises(ValueError):
            manager(tmp_path, orphan_grace=-1.0)


class TestConcurrentSavers:
    def test_plain_saves_in_same_directory_do_not_collide(self, tmp_path):
        """Satellite: concurrent checkpoint.save temp files stay disjoint."""
        errors = []

        def save_one(index):
            try:
                checkpoint.save(
                    make_smb(100 + index, seed=index),
                    tmp_path / f"pool-{index}.ckpt",
                    sync_directory=False,
                )
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=save_one, args=(index,))
            for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for index in range(8):
            restored = checkpoint.load(tmp_path / f"pool-{index}.ckpt")
            assert restored.to_bytes() == make_smb(
                100 + index, seed=index
            ).to_bytes()
        residue = [
            name for name in os.listdir(tmp_path)
            if name.startswith(checkpoint.TEMP_PREFIX)
        ]
        assert residue == []


class TestRecoveryMetrics:
    def test_counters_cover_the_recovery_lifecycle(self, tmp_path):
        previous = set_registry(MetricsRegistry())
        try:
            directory = tmp_path / "ckpts"
            os.makedirs(directory)
            orphan = os.path.join(directory, ".checkpoint-stale")
            with open(orphan, "wb") as handle:
                handle.write(b"x")
            stamp = os.path.getmtime(orphan) - 120
            os.utime(orphan, (stamp, stamp))

            mgr = CheckpointManager(
                directory, keep=1, orphan_grace=60.0, sync_directory=False,
                retry=RetryPolicy(max_attempts=3, base_delay=0.0,
                                  jitter=0.0, sleep=lambda s: None),
            )
            with fault_plan() as plan:
                plan.arm("checkpoint.pre-fsync", transient=True)
                mgr.save(make_smb(100))
            mgr.save(make_smb(200))  # prunes generation 1
            with open(mgr.generations()[-1].path, "wb"):
                pass  # tear the only generation
            with pytest.raises(RecoveryError):
                mgr.load_latest()

            from repro.obs import get_registry, snapshot

            values = {
                family["name"]: family["samples"][0]["value"]
                for family in snapshot(get_registry())["metrics"]
                if family["type"] in ("counter", "gauge")
            }
            assert values["repro_recovery_saves_total"] == 2
            assert values["repro_recovery_retries_total"] == 1
            assert values["repro_recovery_orphans_removed_total"] == 1
            assert values["repro_recovery_generations_pruned_total"] == 1
            assert values["repro_recovery_generations"] == 1
            assert values["repro_recovery_fallbacks_total"] == 1
        finally:
            set_registry(previous)

    def test_disabled_registry_builds_no_instruments(self, tmp_path):
        set_registry(NullRegistry())
        mgr = manager(tmp_path)
        assert mgr._obs is None
