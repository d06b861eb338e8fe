"""Kill-and-resume integration: every armed crash window is survivable.

The scenario mirrors production: an :class:`IngestPipeline` ingests a
deterministic stream with periodic safe-point checkpoints, a fault
injected mid-stream "kills" it (in-process: the error unwinds and the
pipeline is abandoned; subprocess: ``os._exit`` mid-window), and a
fresh pipeline resumes from :meth:`CheckpointManager.load_latest`.

The invariant proven per failpoint: when the generation metadata
survived (the normal case) the resumed pool finishes **bit-for-bit
identical** to an uninterrupted run; when the crash fell between
generation publication and manifest publication the resume is
at-least-once (the replay re-applies a prefix) and the estimate still
lands within the same tolerance an uninterrupted SMB run gets from
Theorem 3.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.engine.pipeline import IngestPipeline
from repro.engine.recovery import CheckpointManager, RetryPolicy
from repro.engine.shards import ShardPool
from repro.streams import distinct_items
from repro.testing.faults import (
    CRASH_EXIT_CODE,
    InjectedFault,
    fault_plan,
)

N_ITEMS = 40_000
CHUNK = 2_000
CHECKPOINT_EVERY = 8_000
STREAM = distinct_items(N_ITEMS, seed=5)

#: Uninterrupted-run accuracy margin for the at-least-once resume
#: paths: the duplicate replay may only nudge the estimate within the
#: same order as SMB's own Theorem-3 design error at this sizing.
RESUME_TOLERANCE = 0.05


def build_pool(seed=0):
    """The pool under test (same construction for run, oracle, resume)."""
    return ShardPool.of(
        "SMB", 16_000, 4, design_cardinality=100_000, seed=seed
    )


def oracle_pool():
    """The uninterrupted reference: synchronous ingest of the stream."""
    pool = build_pool()
    pool.record_many(STREAM)
    return pool


def manager(tmp_path, **kwargs):
    """A fresh manager over ``tmp_path`` with test-friendly defaults."""
    kwargs.setdefault("sync_directory", False)
    kwargs.setdefault("orphan_grace", 0.0)
    kwargs.setdefault(
        "retry",
        RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0,
                    sleep=lambda s: None),
    )
    return CheckpointManager(tmp_path / "ckpts", **kwargs)


def run_until_crash(mgr, arm):
    """Ingest STREAM with periodic checkpoints until the armed fault kills it.

    Returns the abandoned pipeline. The pipeline is deliberately *not*
    closed — a crashed process never closes anything.
    """
    pool = build_pool()
    pipeline = IngestPipeline(
        pool, chunk_size=CHUNK,
        checkpoint_manager=mgr, checkpoint_every=CHECKPOINT_EVERY,
    )
    with fault_plan() as plan:
        arm(plan)
        with pytest.raises((InjectedFault, RuntimeError)):
            pipeline.submit(STREAM)
            pipeline.drain()
            pytest.fail("the armed fault never fired")
    return pipeline


def resume(mgr):
    """Restore the newest valid generation and replay the remainder."""
    pool, generation = mgr.load_latest()
    offset = int(generation.meta.get("records_submitted", 0))
    with IngestPipeline(pool, chunk_size=CHUNK) as pipeline:
        pipeline.submit(STREAM[offset:])
    return pool, generation


class TestCrashResumeMatrix:
    """One scenario per armed crash window."""

    def test_worker_apply_crash_resumes_bit_exact(self, tmp_path):
        mgr = manager(tmp_path)
        run_until_crash(
            mgr, lambda plan: plan.arm("pipeline.worker-apply", after=30)
        )
        pool, generation = resume(mgr)
        assert generation.meta["records_submitted"] > 0
        assert pool.to_bytes() == oracle_pool().to_bytes()
        assert pool.query() == oracle_pool().query()

    def test_crash_after_checkpoint_resumes_bit_exact(self, tmp_path):
        # 4 shards -> 4 applies per chunk and 16 per CHECKPOINT_EVERY;
        # hit 33 is the first apply after the second periodic
        # generation, so the resume replays from exactly that offset.
        mgr = manager(tmp_path)
        pipeline = run_until_crash(
            mgr, lambda plan: plan.arm("pipeline.worker-apply", after=32)
        )
        assert pipeline.records_dropped == CHUNK
        pool, generation = resume(mgr)
        assert generation.meta["records_submitted"] == 2 * CHECKPOINT_EVERY
        assert pool.to_bytes() == oracle_pool().to_bytes()

    def test_pre_fsync_crash_falls_back_and_resumes_bit_exact(
        self, tmp_path
    ):
        """A checkpoint dying pre-fsync leaves the previous generation."""
        mgr = manager(tmp_path)
        run_until_crash(
            mgr,
            lambda plan: plan.arm("checkpoint.pre-fsync", after=2),
        )
        pool, generation = resume(mgr)
        # The third periodic checkpoint died; the second survived.
        assert generation.meta["records_submitted"] == 2 * CHECKPOINT_EVERY
        assert pool.to_bytes() == oracle_pool().to_bytes()

    def test_post_replace_crash_resumes_within_tolerance(self, tmp_path):
        """Generation durable, manifest stale: at-least-once resume."""
        mgr = manager(tmp_path)
        run_until_crash(
            mgr,
            lambda plan: plan.arm("checkpoint.post-replace", after=1),
        )
        pool, generation = resume(mgr)
        assert generation.manifested is False
        reference = oracle_pool().query()
        assert abs(pool.query() - reference) / reference < RESUME_TOLERANCE
        assert abs(pool.query() - N_ITEMS) / N_ITEMS < RESUME_TOLERANCE

    def test_pre_manifest_crash_resumes_within_tolerance(self, tmp_path):
        mgr = manager(tmp_path)
        run_until_crash(
            mgr,
            lambda plan: plan.arm("recovery.pre-manifest", after=1),
        )
        pool, generation = resume(mgr)
        assert generation.manifested is False
        assert generation.meta == {}
        reference = oracle_pool().query()
        assert abs(pool.query() - reference) / reference < RESUME_TOLERANCE
        assert abs(pool.query() - N_ITEMS) / N_ITEMS < RESUME_TOLERANCE

    def test_uninterrupted_periodic_checkpoints_are_safe_points(
        self, tmp_path
    ):
        """No fault at all: every generation equals a synchronous prefix."""
        mgr = manager(tmp_path, keep=16)
        pool = build_pool()
        with IngestPipeline(
            pool, chunk_size=CHUNK,
            checkpoint_manager=mgr, checkpoint_every=CHECKPOINT_EVERY,
        ) as pipeline:
            pipeline.submit(STREAM)
        generations = mgr.generations()
        assert [g.meta["records_submitted"] for g in generations] == [
            8_000, 16_000, 24_000, 32_000, 40_000
        ]
        for generation in generations:
            from repro.engine import checkpoint

            restored = checkpoint.load(generation.path)
            prefix = build_pool()
            prefix.record_many(STREAM[: generation.meta["records_submitted"]])
            assert restored.to_bytes() == prefix.to_bytes()


class TestSubprocessCrash:
    """A real kill: the engine CLI dies at an armed failpoint mid-run."""

    def _engine(self, tmp_path, *extra, env_faults=None):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        if env_faults:
            env["REPRO_FAULTS"] = env_faults
        else:
            env.pop("REPRO_FAULTS", None)
        return subprocess.run(
            [
                sys.executable, "-m", "repro", "engine",
                "--items", "30000", "--shards", "2",
                "--checkpoint-dir", str(tmp_path / "ckpts"),
                "--checkpoint-every", "8000",
                *extra,
            ],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_killed_engine_resumes_to_the_uninterrupted_state(
        self, tmp_path
    ):
        crashed = self._engine(
            tmp_path, env_faults="pipeline.worker-apply:crash@6"
        )
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stderr
        resumed = self._engine(tmp_path, "--resume")
        assert resumed.returncode == 0, resumed.stderr

        # The final generation must hold exactly the state an
        # uninterrupted synchronous ingest of the same stream produces
        # (CLI defaults: pool seed 0, stream seed 1, memory 20000).
        mgr = CheckpointManager(tmp_path / "ckpts", sync_directory=False)
        restored, generation = mgr.load_latest()
        assert generation.meta["records_ingested"] == 30_000
        reference = ShardPool.of(
            "SMB", 20_000, 2, design_cardinality=1_000_000, seed=0
        )
        reference.record_many(distinct_items(30_000, seed=1))
        assert restored.to_bytes() == reference.to_bytes()


class TestRouteOpsBilling:
    """Satellite regression: routing-ops accounting vs records_submitted."""

    def test_mid_chunk_apply_failure_balances_accounting(self):
        pool = build_pool()
        pipeline = IngestPipeline(pool, chunk_size=CHUNK)
        with fault_plan() as plan:
            # 4 shards -> 4 applies per chunk; hit 6 is the second
            # sub-plane of the second chunk.
            plan.arm("pipeline.worker-apply", after=5)
            with pytest.raises(InjectedFault):
                pipeline.submit(STREAM[: 4 * CHUNK])
        # The failing chunk counts as submitted; its first sub-plane was
        # applied and the failing one plus the rest were dropped.
        assert pipeline.records_submitted == 2 * CHUNK
        first_part = pool.partitioner.split(STREAM[CHUNK: 2 * CHUNK])[0]
        assert pipeline.records_applied == CHUNK + first_part.size
        assert pipeline.records_dropped == CHUNK - first_part.size
        assert pool._route_hash_ops == pipeline.records_submitted
        # The failure latches: later submits and close raise too.
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            pipeline.submit(STREAM[4 * CHUNK: 5 * CHUNK])
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            pipeline.close()
        assert pipeline.records_submitted == 2 * CHUNK

    def test_partitioner_failure_keeps_accounting_consistent(self):
        pool = build_pool()
        pipeline = IngestPipeline(pool, chunk_size=CHUNK)

        class ExplodingPartitioner:
            """Delegates to the real partitioner; dies on call two."""

            def __init__(self, inner):
                self._inner = inner
                self._calls = 0

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def split_plane(self, plane):
                self._calls += 1
                if self._calls == 2:
                    raise RuntimeError("partitioner died mid-stream")
                return self._inner.split_plane(plane)

        original = pool.partitioner
        pool.partitioner = ExplodingPartitioner(original)
        try:
            with pytest.raises(RuntimeError, match="partitioner died"):
                pipeline.submit(STREAM[: 4 * CHUNK])
        finally:
            pool.partitioner = original
        assert pipeline.records_submitted == CHUNK
        assert pool._route_hash_ops == CHUNK
        pipeline.close()


class TestCloseLifecycleRace:
    """Satellite regression: lock-guarded close vs close and submit."""

    def _pipeline(self):
        pool = ShardPool.of("SMB", 8_000, 4, seed=1)
        return IngestPipeline(pool, chunk_size=500)

    def test_concurrent_closes_are_idempotent(self):
        for __ in range(15):
            pipeline = self._pipeline()
            pipeline.submit(STREAM[:4_000])
            barrier = threading.Barrier(3)
            errors = []

            def close_from_thread():
                barrier.wait()
                try:
                    pipeline.close()
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=close_from_thread)
                for __ in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert pipeline.records_applied == 4_000
            with pytest.raises(RuntimeError, match="closed pipeline"):
                pipeline.submit(STREAM[:10])

    def test_submit_racing_close_raises_or_completes(self):
        for __ in range(10):
            pipeline = self._pipeline()
            outcomes = []
            started = threading.Event()

            def producer():
                try:
                    for __ in range(50):
                        started.set()
                        pipeline.submit(STREAM[:1_000])
                    outcomes.append("completed")
                except RuntimeError as error:
                    assert "closed pipeline" in str(error)
                    outcomes.append("raised")

            thread = threading.Thread(target=producer)
            thread.start()
            started.wait()
            pipeline.close()
            thread.join()
            assert outcomes in (["completed"], ["raised"])
            # Whatever the interleaving, every accepted record was
            # applied before close() returned.
            assert pipeline.records_dropped == 0
            assert (
                pipeline.records_applied == pipeline.records_submitted
            )

    def test_submit_after_close_raises_immediately(self):
        pipeline = self._pipeline()
        pipeline.close()
        with pytest.raises(RuntimeError, match="closed pipeline"):
            pipeline.submit(np.arange(10, dtype=np.uint64))

    def test_close_remains_idempotent_sequentially(self):
        pipeline = self._pipeline()
        pipeline.submit(STREAM[:1_000])
        pipeline.close()
        pipeline.close()
        assert pipeline.records_applied == 1_000
