"""Crash-recovery subsystem: rotation, manifest, fallback, retries.

The fault matrix drives every checkpoint crash window through
:class:`~repro.engine.recovery.CheckpointManager` — real generations
written by the real save path, then torn exactly at the armed window —
and asserts the recovery invariant: *each window either leaves the
previous generation loadable or is healed by manifest/scan fallback*.
A manifest is trusted for metadata only: malformed ones, CRC intact,
are fuzzed and must degrade to the directory scan.
"""

import copy
import errno
import json
import os
import pathlib
import shutil
import tempfile
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def manifest_body(mgr):
    """The body of the manager's manifest, as decoded JSON."""
    with open(mgr.manifest_path, "rb") as handle:
        return json.load(handle)["body"]


def reseal(mgr, body):
    """Publish ``body`` as the manifest under a CRC that matches it."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    document = {"crc": zlib.crc32(canonical.encode()), "body": body}
    with open(mgr.manifest_path, "w") as handle:
        json.dump(document, handle)


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
        assert generation.manifested is True
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


class TestManifest:
    def test_manifest_is_crc_guarded_json(self, tmp_path):
        mgr = manager(tmp_path)
        mgr.save(make_smb(100), meta={"records": 100})
        with open(mgr.manifest_path, "rb") as handle:
            document = json.load(handle)
        body = json.dumps(
            document["body"], sort_keys=True, separators=(",", ":")
        ).encode()
        assert document["crc"] == zlib.crc32(body)
        assert document["body"]["generations"][0]["meta"] == {"records": 100}

    def test_torn_manifest_degrades_to_scan(self, tmp_path):
        mgr = manager(tmp_path)
        mgr.save(make_smb(100), meta={"records": 100})
        with open(mgr.manifest_path, "r+b") as handle:
            handle.seek(10)
            handle.write(b"XX")  # corrupt the CRC or body
        estimator, generation = mgr.load_latest()
        assert generation.generation == 1
        assert generation.manifested is False  # recovered by scan
        assert generation.meta == {}  # manifest metadata is lost
        assert estimator.to_bytes() == make_smb(100).to_bytes()

    def test_missing_manifest_degrades_to_scan(self, tmp_path):
        mgr = manager(tmp_path)
        mgr.save(make_smb(100))
        os.unlink(mgr.manifest_path)
        estimator, generation = mgr.load_latest()
        assert generation.generation == 1
        assert generation.manifested is False

    def test_manifest_entry_for_pruned_file_is_ignored(self, tmp_path):
        mgr = manager(tmp_path)
        first = mgr.save(make_smb(100))
        mgr.save(make_smb(200))
        os.unlink(first.path)  # simulate a crashed rotation's half-prune
        estimator, generation = mgr.load_latest()
        assert generation.generation == 2


class TestMalformedManifest:
    """A manifest with a valid CRC but a malformed body is torn."""

    def _scanned_newest(self, mgr, number, n):
        estimator, generation = mgr.load_latest()
        assert generation.generation == number
        assert generation.manifested is False  # recovered by scan
        assert generation.meta == {}
        assert estimator.to_bytes() == make_smb(n).to_bytes()
        assert [g.manifested for g in mgr.generations()] == [False] * number

    def test_body_that_is_a_list(self, tmp_path):
        mgr = manager(tmp_path)
        mgr.save(make_smb(100), meta={"n": 100})
        reseal(mgr, [manifest_body(mgr)])
        self._scanned_newest(mgr, 1, 100)

    def test_generations_that_are_a_number(self, tmp_path):
        mgr = manager(tmp_path)
        mgr.save(make_smb(100), meta={"n": 100})
        body = manifest_body(mgr)
        body["generations"] = 5
        reseal(mgr, body)
        self._scanned_newest(mgr, 1, 100)

    def test_generation_number_that_is_infinite(self, tmp_path):
        mgr = manager(tmp_path)
        mgr.save(make_smb(100), meta={"n": 100})
        body = manifest_body(mgr)
        body["generations"][0]["generation"] = float("inf")
        reseal(mgr, body)
        self._scanned_newest(mgr, 1, 100)

    def test_entry_naming_another_generations_file(self, tmp_path):
        mgr = manager(tmp_path)
        mgr.save(make_smb(100), meta={"n": 100})
        mgr.save(make_smb(250), meta={"n": 250})
        body = manifest_body(mgr)
        body["generations"][1]["file"] = body["generations"][0]["file"]
        reseal(mgr, body)
        self._scanned_newest(mgr, 2, 250)

    def test_entry_naming_a_file_outside_the_directory(self, tmp_path):
        victim = tmp_path / "victim"
        victim.write_bytes(b"not a checkpoint")
        mgr = manager(tmp_path, keep=2)
        mgr.save(make_smb(100))
        mgr.save(make_smb(200))
        body = manifest_body(mgr)
        body["generations"][0]["file"] = str(victim)
        reseal(mgr, body)
        assert mgr.save(make_smb(300)).generation == 3  # prunes generation 1
        assert victim.read_bytes() == b"not a checkpoint"
        assert sorted(os.listdir(mgr.directory)) == [
            "MANIFEST.json", "ckpt-00000002.rpck", "ckpt-00000003.rpck",
        ]


#: Keys a manifest body holds, for renamed and added keys.
MANIFEST_KEYS = ("version", "generations", "generation", "file", "bytes", "meta")


def json_values(paths):
    """Any decoded JSON value, weighted toward what a manifest holds:
    generation-like numbers, non-finite floats and file paths."""
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.sampled_from([-1, 0, 1, 2, 3, 4, 99_999_999, 100_000_000])
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.text(max_size=8)
        | st.sampled_from(paths)
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(
            st.sampled_from(MANIFEST_KEYS) | st.text(max_size=4),
            inner,
            max_size=3,
        ),
        max_leaves=6,
    )


def slots(node):
    """Every (container, key) pair in a decoded JSON tree."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
    else:
        return
    for key in keys:
        yield node, key
        yield from slots(node[key])


@st.composite
def mutated(draw, body, paths):
    """``body`` after one to three drops, retypes or renames anywhere
    in it, the body itself included."""
    holder = [copy.deepcopy(body)]
    values = json_values(paths)
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(slots(holder))))
        action = draw(st.sampled_from(["drop", "replace", "rename"]))
        if action == "drop" and container is not holder:
            del container[key]
        elif action == "rename" and isinstance(container, dict):
            name = draw(st.sampled_from(MANIFEST_KEYS) | st.text(max_size=4))
            container[name] = container.pop(key)
        else:
            container[key] = draw(values)
    return holder[0]


@pytest.fixture(scope="module")
def three_generations(tmp_path_factory):
    """A checkpoint directory holding generations 1-3 of distinct SMBs,
    and each generation's estimator bytes."""
    root = tmp_path_factory.mktemp("manifest-fuzz")
    mgr = manager(root)
    saved = {}
    for n in (100, 200, 300):
        saved[mgr.save(make_smb(n), meta={"n": n}).generation] = (
            make_smb(n).to_bytes()
        )
    return root, saved


class TestManifestFuzz:
    @given(data=st.data())
    def test_any_resealed_manifest_is_metadata_only(
        self, three_generations, data
    ):
        """Mutate the manifest body anywhere and re-seal its CRC. Every
        generation file is intact, so recovery still finds generations
        1-3 at their own paths, loads generation 3's bytes, saves
        generation 4 and touches no file outside the directory."""
        template, saved = three_generations
        root = tempfile.mkdtemp(dir=template)
        try:
            shutil.copytree(template / "ckpts", os.path.join(root, "ckpts"))
            outside = os.path.join(root, "outside")
            os.mkdir(outside)
            victim = os.path.join(outside, "victim")
            with open(victim, "wb") as handle:
                handle.write(b"victim")
            mgr = manager(pathlib.Path(root))
            paths = [
                victim, "../outside/victim", outside, mgr.directory, "/",
                "", ".", "..", "MANIFEST.json",
                *(f"ckpt-{number:08d}.rpck" for number in range(5)),
            ]
            reseal(mgr, data.draw(mutated(manifest_body(mgr), paths)))

            def in_place(generation):
                name = f"ckpt-{generation.generation:08d}.rpck"
                assert generation.path == os.path.join(mgr.directory, name)
                assert isinstance(generation.meta, dict)
                return checkpoint.load(generation.path).to_bytes()

            estimator, latest = mgr.load_latest()
            assert latest.generation == 3
            assert in_place(latest) == estimator.to_bytes() == saved[3]
            generations = mgr.generations()
            assert [g.generation for g in generations] == [1, 2, 3]
            for generation in generations:
                assert in_place(generation) == saved[generation.generation]
            newest = mgr.save(make_smb(400))
            assert newest.generation == 4
            assert in_place(newest) == make_smb(400).to_bytes()
            assert sorted(os.listdir(mgr.directory)) == [
                "MANIFEST.json", *(f"ckpt-{n:08d}.rpck" for n in (2, 3, 4)),
            ]
            assert os.listdir(outside) == ["victim"]
            with open(victim, "rb") as handle:
                assert handle.read() == b"victim"
        finally:
            shutil.rmtree(root)


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
        assert generation.generation == 3  # unmanifested but valid
        assert generation.manifested is False
        assert estimator.to_bytes() == make_smb(999).to_bytes()

    def test_pre_manifest_fault_recovers_unmanifested(self, tmp_path):
        """Crash window 3: generation durable, manifest stale -> scan heals."""
        mgr, __ = self._two_generations(tmp_path)
        with fault_plan() as plan:
            plan.arm("recovery.pre-manifest")
            with pytest.raises(InjectedFault):
                mgr.save(make_smb(999), meta={"n": 999})
        estimator, generation = mgr.load_latest()
        assert generation.generation == 3
        assert generation.manifested is False
        assert generation.meta == {}  # metadata publishes with the manifest
        assert estimator.to_bytes() == make_smb(999).to_bytes()
        # The next save after the healed crash continues the sequence.
        after = mgr.save(make_smb(50))
        assert after.generation == 4

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
        assert os.path.exists(mgr.manifest_path)

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
