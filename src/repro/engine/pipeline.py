"""Streaming ingestion over a shard pool, applied in the submitting thread.

:class:`IngestPipeline` turns a :class:`~repro.engine.shards.ShardPool`
into a streaming sink that many threads may feed at once. The
submitting thread canonicalizes each incoming batch, slices it into
chunks of ``chunk_size`` items, builds one shared
:class:`~repro.kernels.HashPlane` per chunk, prefetches the hash arrays
the pool's shards will read, splits the chunk into per-shard sub-planes
and applies each sub-plane to its shard — so a chunk is hashed exactly
once, and a drained pipeline holds *bit-for-bit* the same state as
synchronous ``pool.record_many`` over the same stream (asserted by the
stateful engine test).

**One apply lock.** The shards are applied under one per-pipeline
lock, taken once per chunk; hashing and splitting run outside it. The
lock is what makes :meth:`IngestPipeline.submit` safe to call from any
number of threads concurrently — in particular from an executor pool
driven by an ``asyncio`` event loop (``loop.run_in_executor``), which
is how the serving layer (:mod:`repro.serve`) feeds the pipeline. The
pipeline starts no threads of its own. Within-shard arrival order
across producers is whatever order their chunks take the lock in —
estimator state is order-insensitive for a fixed key *set*, and
per-producer FIFO still holds, which is what the serving layer's
per-connection semantics need.

**Quiescing.** :meth:`checkpoint_now` parks new submits at an entry
gate and waits out in-flight ones before saving, so a checkpoint can
never capture a half-applied chunk from a concurrent producer.
:meth:`drain` is a barrier on the apply lock; :meth:`close` refuses new
submits, waits out in-flight ones and re-raises a latched failure.
Submit-vs-close is deterministic: a submit racing a close either
completes before the close returns or raises ``RuntimeError``. The
pipeline is a context manager::

    with IngestPipeline(pool) as pipe:
        for batch in batches:
            pipe.submit(batch)
    print(pool.query())

**Failure accounting.** A shard that raises while applying its
sub-plane drops that sub-plane (its state is suspect) and the
unapplied rest of the chunk; the failing submit re-raises the shard's
error, the failure latches, and every later ``submit``, ``drain`` and
``close`` raises ``RuntimeError("ingest worker failed")`` from it. The
counters stay honest through this, per sub-plane: ``records_submitted
== records_applied + records_dropped`` at every drained point.

**Observability.** When the process-wide :mod:`repro.obs` registry is
enabled, the pipeline emits submitted/dropped counters and per-shard
apply latency histograms, and attaches per-shard SMB adaptivity gauges
via the pool observer (exposed as
:attr:`IngestPipeline.pool_observer`). All metric work happens per
chunk or per sub-plane — never per item — and with the default
:class:`~repro.obs.metrics.NullRegistry` the instrumented branches
collapse to a single ``is None`` check.

**Durability.** Constructed with a
:class:`~repro.engine.recovery.CheckpointManager` and
``checkpoint_every=N``, the submit path checkpoints the pool at a
quiesced safe point every ``N`` submitted records (see
:meth:`IngestPipeline.checkpoint_now` and ``docs/recovery.md``); the
crash window before each sub-plane apply carries the
:mod:`repro.testing.faults` failpoint ``pipeline.worker-apply`` for
the fault-injection suite.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.engine.shards import ShardPool
from repro.hashing import canonical_u64_array
from repro.kernels import HashPlane
from repro.obs.metrics import get_registry
from repro.testing.faults import fire

if TYPE_CHECKING:  # import cycle guard: recovery imports checkpoint
    from types import TracebackType

    from repro.engine.recovery import CheckpointManager, Generation
    from repro.obs.instrument import PipelineMetrics, PoolObserver

#: Default chunk size of the submit path — same order as SMB's dedup
#: window (``repro.core.smb.BATCH_CHUNK``), large enough to amortize
#: vectorized hashing, small enough to bound one hold of the apply lock.
DEFAULT_CHUNK = 8192


class IngestPipeline:
    """Chunked, thread-safe ingestion into a shard pool.

    Parameters
    ----------
    pool:
        The shard pool to ingest into. The pipeline takes exclusive
        write ownership of the pool until :meth:`close`.
    chunk_size:
        Submitted batches are partitioned in chunks of this many items.
    checkpoint_manager / checkpoint_every:
        Optional crash-durability wiring: with a
        :class:`~repro.engine.recovery.CheckpointManager` and a
        positive ``checkpoint_every`` (records), the submit path
        quiesces to a safe point and writes a checkpoint generation
        every time that many records have been submitted since the last
        one. Set :attr:`checkpoint_meta` to enrich the generation
        metadata (the engine CLI records the absolute stream offset
        there for exact resume).
    """

    def __init__(
        self,
        pool: ShardPool,
        chunk_size: int = DEFAULT_CHUNK,
        checkpoint_manager: "CheckpointManager | None" = None,
        checkpoint_every: int = 0,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if checkpoint_every and checkpoint_manager is None:
            raise ValueError(
                "checkpoint_every requires a checkpoint_manager"
            )
        self.pool = pool
        self.chunk_size = int(chunk_size)
        self.records_submitted = 0  # guarded-by: _count_lock
        self.records_applied = 0  # guarded-by: _count_lock
        self.records_dropped = 0  # guarded-by: _count_lock
        self.checkpoint_manager = checkpoint_manager
        self.checkpoint_every = int(checkpoint_every)
        #: Optional ``() -> dict`` hook merged into every periodic
        #: checkpoint's metadata (e.g. an absolute stream offset).
        self.checkpoint_meta: Callable[[], dict[str, Any]] | None = None
        self._records_since_checkpoint = 0  # guarded-by: _count_lock
        # One lock for every counter: submitted / applied / dropped /
        # since-checkpoint / the pool's routing-hash ops. Producers may
        # be an executor pool, so unsynchronized += would lose updates.
        # Cost is one uncontended acquire per chunk, never per item.
        self._count_lock = threading.Lock()
        # Serializes every write to the pool's shards; taken once per
        # chunk. Never held across a checkpoint (which waits for other
        # producers to finish their chunks).
        self._apply_lock = threading.Lock()
        # Apply failures latch here (appended under _apply_lock; read
        # lock-free by the fast-fail checks).
        self._errors: list[BaseException] = []
        # Lifecycle state: _closed flips once, under _lifecycle; submits
        # register in _active_submits so close() and a checkpoint can
        # wait them out. _paused counts outstanding quiesce requests
        # (checkpoint_now): while it is non-zero, new submits park at
        # the gate instead of starting.
        self._lifecycle = threading.Condition()
        self._active_submits = 0  # guarded-by: _lifecycle
        self._paused = 0  # guarded-by: _lifecycle
        self._closed = False  # guarded-by: _lifecycle
        # Serializes checkpoint writers; the periodic trigger inside
        # submit try-acquires it so two producers crossing the threshold
        # together cannot deadlock waiting for each other to quiesce.
        self._checkpoint_mutex = threading.Lock()
        registry = get_registry()
        self._obs: "PipelineMetrics | None" = None
        #: Per-shard estimate/skew gauges (None when obs disabled);
        #: call ``pool_observer.update()`` at safe points.
        self.pool_observer: "PoolObserver | None" = None
        if registry.enabled:
            from repro.obs.instrument import PipelineMetrics, PoolObserver

            self._obs = PipelineMetrics(registry, pool.num_shards)
            self.pool_observer = PoolObserver(registry, pool)

    def submit(self, items: Iterable[object] | np.ndarray) -> int:
        """Partition a batch and apply it to the shards; returns its size.

        Raises ``RuntimeError`` if the pipeline is closed or an earlier
        apply has failed — the failure check runs before *every* chunk.
        The submit whose apply fails re-raises the shard's own error at
        once (see :meth:`_apply`). A chunk is billed
        (:attr:`records_submitted`, the pool's routing hash ops) once it
        has been split, before any of it is applied, so a failure
        mid-chunk leaves ``records_submitted == records_applied +
        records_dropped`` and routing ops equal to submitted records.

        Submit-vs-close is deterministic: a submit that starts after
        :meth:`close` was called raises immediately; a submit already
        in flight is waited for by ``close``. While a
        :meth:`checkpoint_now` is quiescing, new submits park at the
        entry gate and resume once the generation is written — callers
        observe extra latency, not an error. Safe to call from many
        threads at once (an ``asyncio`` ``run_in_executor`` pool
        included).
        """
        with self._lifecycle:
            while self._paused and not self._closed:
                self._lifecycle.wait()
            if self._closed:
                raise RuntimeError("cannot submit to a closed pipeline")
            self._active_submits += 1
        try:
            return self._submit_registered(items)
        finally:
            with self._lifecycle:
                self._active_submits -= 1
                self._lifecycle.notify_all()

    def _submit_registered(self, items: Iterable[object] | np.ndarray) -> int:
        """The body of :meth:`submit`, after lifecycle registration."""
        self._raise_pending()
        values = canonical_u64_array(items)
        requests = self.pool.plane_requests()
        obs = self._obs
        for start in range(0, values.size, self.chunk_size):
            self._raise_pending()  # fast-fail between chunks
            plane = HashPlane(values[start:start + self.chunk_size])
            plane.prefetch(requests)
            parts = self.pool.partitioner.split_plane(plane)
            # Same routing-hash accounting as ShardPool._record_plane
            # (the pipeline partitions directly, bypassing that method).
            checkpoint_due = False
            with self._count_lock:
                if self.pool.num_shards > 1:
                    self.pool._route_hash_ops += plane.size
                self.records_submitted += plane.size
                if self.checkpoint_every:
                    self._records_since_checkpoint += plane.size
                    checkpoint_due = (
                        self._records_since_checkpoint
                        >= self.checkpoint_every
                    )
            if obs is not None:
                obs.submitted.inc(plane.size)
            with self._apply_lock:
                self._apply(parts)
            if checkpoint_due:
                # Try-acquire: when several producers cross the
                # threshold together exactly one writes the generation
                # (it quiesces the others); the losers skip and the
                # still-high since-checkpoint counter re-triggers on
                # the winner's next chunk if the threshold is crossed
                # again.
                if self._checkpoint_mutex.acquire(blocking=False):
                    try:
                        self._checkpoint_quiesced(None, active_allowance=1)
                    finally:
                        self._checkpoint_mutex.release()
        return int(values.size)

    def _apply(self, parts: list[HashPlane]) -> None:
        """Apply one chunk's sub-planes to their shards, in shard order.

        The caller holds :attr:`_apply_lock`. A shard that raises
        latches its error, which is re-raised; that sub-plane (it may be
        partially applied, so its shard state is suspect) and the rest
        of the chunk count as dropped instead of applied. So does the
        whole chunk when another producer's failure has latched.
        """
        obs = self._obs
        applied = applied_parts = 0
        try:
            self._raise_pending()
            for shard_index, part in enumerate(parts):
                if not part.size:
                    continue
                began = time.perf_counter() if obs is not None else 0.0
                try:
                    fire("pipeline.worker-apply")
                    self.pool.shards[shard_index]._record_plane(part)
                except BaseException as error:
                    self._errors.append(error)
                    raise
                finally:
                    if obs is not None:
                        obs.apply_latency[shard_index].observe(
                            time.perf_counter() - began
                        )
                applied += part.size
                applied_parts += 1
        finally:
            dropped = sum(part.size for part in parts) - applied
            with self._count_lock:
                self.records_applied += applied
                self.records_dropped += dropped
            if obs is not None and dropped:
                obs.dropped.inc(dropped)
                obs.batches_dropped.inc(
                    sum(1 for part in parts if part.size) - applied_parts
                )

    def checkpoint_now(
        self, meta: dict[str, Any] | None = None
    ) -> "Generation":
        """Quiesce to a safe point and write one checkpoint generation.

        Requires a ``checkpoint_manager``. Producers are quiesced
        first (new submits park at the entry gate, in-flight submits
        are waited out), so the generation captures a state exactly
        equivalent to a synchronous ingest of every record submitted so
        far — never a half-applied chunk from a concurrent producer.
        The metadata records :attr:`records_submitted` (plus anything
        the :attr:`checkpoint_meta` hook or the ``meta`` argument
        adds), so a resumed run knows the exact stream offset to replay
        from. Concurrent callers serialize; each writes its own
        generation.
        """
        with self._checkpoint_mutex:
            return self._checkpoint_quiesced(meta, active_allowance=0)

    def _checkpoint_quiesced(
        self, meta: dict[str, Any] | None, active_allowance: int
    ) -> "Generation":
        """Quiesce producers, drain, save one generation, resume.

        ``active_allowance`` is the number of in-flight submits allowed
        to remain registered: 0 for an external caller, 1 when called
        *from inside* a submit (the caller itself, which has released
        the apply lock). The caller must hold :attr:`_checkpoint_mutex`.
        """
        if self.checkpoint_manager is None:
            raise RuntimeError(
                "pipeline has no checkpoint_manager to checkpoint into"
            )
        with self._lifecycle:
            self._paused += 1
            while self._active_submits > active_allowance:
                self._lifecycle.wait()
        try:
            self.drain()
            merged: dict[str, Any] = {}
            if self.checkpoint_meta is not None:
                merged.update(self.checkpoint_meta())
            if meta:
                merged.update(meta)
            with self._count_lock:
                merged.setdefault("records_submitted", self.records_submitted)
            generation = self.checkpoint_manager.save(self.pool, meta=merged)
            with self._count_lock:
                self._records_since_checkpoint = 0
            return generation
        finally:
            with self._lifecycle:
                self._paused -= 1
                self._lifecycle.notify_all()

    def drain(self) -> None:
        """Wait for any chunk being applied, then surface a latched failure.

        Once every producer has returned from :meth:`submit`, the
        estimator state is identical to a synchronous ingest of all
        submitted items — a safe point to query or checkpoint.
        """
        with self._apply_lock:
            if self.pool_observer is not None:
                self.pool_observer.update()
        self._raise_pending()

    def query_live(self) -> float:
        """The current estimate without draining (the serving layer's
        O(1) ESTIMATE read): a lock-free read of the pool, which never
        waits for a chunk being applied."""
        return self.pool.query()

    def estimate(self) -> float:
        """Drain, then return the pool's cardinality estimate."""
        self.drain()
        return self.pool.query()

    def close(self) -> None:
        """Refuse new submits, wait out in-flight ones, surface any failure.

        Thread-safe and idempotent: every call flips the pipeline to
        closed, wakes submits parked at the pause gate (they raise),
        waits until no submit is in flight and then drains — so a
        submit racing a close either completes before ``close`` returns
        or raises ``RuntimeError``.
        """
        with self._lifecycle:
            self._closed = True
            self._lifecycle.notify_all()
            while self._active_submits:
                self._lifecycle.wait()
        self.drain()

    def _raise_pending(self) -> None:
        if self._errors:
            raise RuntimeError(
                "ingest worker failed"
            ) from self._errors[0]

    def __enter__(self) -> "IngestPipeline":
        """Enter: the pipeline is usable immediately after construction."""
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: "TracebackType | None",
    ) -> None:
        """Exit: close the pipeline (raises a latched apply failure)."""
        self.close()

    def __repr__(self) -> str:
        # analysis: allow(guards.unguarded-access) -- diagnostic repr:
        # lock-free reads of GIL-atomic ints/bools. A momentarily stale
        # value is fine here, and taking locks in repr would let a
        # debugger contend with the ingest path.
        submitted = self.records_submitted
        # analysis: allow(guards.unguarded-access) -- same repr waiver
        dropped = self.records_dropped
        # analysis: allow(guards.unguarded-access) -- same repr waiver
        closed = self._closed
        return (
            f"IngestPipeline(shards={self.pool.num_shards}, "
            f"chunk_size={self.chunk_size}, "
            f"submitted={submitted}, dropped={dropped}, closed={closed})"
        )
