"""Streaming ingestion over a shard pool, applied in the submitting thread.

:class:`IngestPipeline` turns a :class:`~repro.engine.shards.ShardPool`
into a streaming sink that many threads may feed at once. The
submitting thread canonicalizes each incoming batch, slices it into
chunks of ``chunk_size`` items, wraps each chunk in a
:class:`~repro.kernels.HashPlane`, has the pool split it into per-shard
sub-planes (:meth:`~repro.engine.shards.ShardPool.split`, the same
split ``pool.record_many`` makes) and applies each sub-plane to its
shard — so a drained pipeline holds *bit-for-bit* the same state as
synchronous ``pool.record_many`` over the same stream (asserted by the
stateful engine test).

**One lock.** Every counter, the lifecycle state and every shard write
sit under one per-pipeline condition, taken once per chunk to bill,
apply and count it; canonicalizing, hashing, prefetching and splitting
run outside it, and so does a checkpoint's save. The lock is what makes
:meth:`IngestPipeline.submit` safe to call from any number of threads
concurrently — in particular from an executor pool driven by an
``asyncio`` event loop (``loop.run_in_executor``), which is how the
serving layer (:mod:`repro.serve`) feeds the pipeline. The pipeline
starts no threads of its own. Within-shard arrival order across
producers is whatever order their chunks take the lock in — estimator
state is order-insensitive for a fixed key *set*, and per-producer FIFO
still holds, which is what the serving layer's per-connection semantics
need.

**Quiescing.** :meth:`IngestPipeline.paused` is the one way to hold
a pipeline still: new submits park at an entry gate, in-flight ones are
waited out and other pauses of the same pipeline wait their turn, so
its body reads or changes the pool at a safe point and never sees a
half-applied chunk from a concurrent producer. A checkpoint is a save
under a pause. The periodic trigger is decided under the lock and
skipped while a pause is held, so two producers crossing the threshold
together never wait for each other. :meth:`drain` is a barrier on the
lock; :meth:`close` refuses new submits and pauses, waits out in-flight
ones and re-raises a latched failure. Submit-vs-close is deterministic:
a submit racing a close either completes before the close returns or
raises ``RuntimeError``. The serving layer pauses one tenant's pipeline
at a time for EXPORT, MERGE_IN and each tenant's share of a
CHECKPOINT. The pipeline is a context manager::

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
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

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
#: vectorized hashing, small enough to bound one hold of the lock.
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
        self.checkpoint_manager = checkpoint_manager
        self.checkpoint_every = int(checkpoint_every)
        #: Optional ``() -> dict`` hook merged into every periodic
        #: checkpoint's metadata (e.g. an absolute stream offset).
        self.checkpoint_meta: Callable[[], dict[str, Any]] | None = None
        #: The newest generation this pipeline wrote, or ``None``.
        self.last_generation: "Generation | None" = None
        # One condition for all shared state and every shard write;
        # a chunk takes it once. Producers may be an executor pool, so
        # unsynchronized += would lose updates. The pool's routing-hash
        # ops are billed under it too.
        self._lock = threading.Condition(threading.Lock())
        self.records_submitted = 0  # guarded-by: _lock
        self.records_applied = 0  # guarded-by: _lock
        self.records_dropped = 0  # guarded-by: _lock
        self._records_since_checkpoint = 0  # guarded-by: _lock
        # Submits register in _active_submits so close() and a pause
        # can wait them out. _paused is set while a pause holds the
        # pipeline: new submits park at the gate instead of starting,
        # and other pauses wait their turn. _closed flips once.
        self._active_submits = 0  # guarded-by: _lock
        self._paused = False  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        # Apply failures latch here (appended under _lock; read
        # lock-free by the fast-fail checks).
        self._errors: list[BaseException] = []
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
        once (see :meth:`_apply`).

        Submit-vs-close is deterministic: a submit that starts after
        :meth:`close` was called raises immediately; a submit already
        in flight is waited for by ``close``. While a pause is held,
        new submits park at the entry gate and resume once it is
        released — callers observe extra latency, not an error. Safe to
        call from many threads at once (an ``asyncio``
        ``run_in_executor`` pool included).
        """
        with self._lock:
            while self._paused and not self._closed:
                self._lock.wait()
            if self._closed:
                raise RuntimeError("cannot submit to a closed pipeline")
            self._active_submits += 1
        try:
            return self._submit_registered(items)
        finally:
            with self._lock:
                self._active_submits -= 1
                self._lock.notify_all()

    def _submit_registered(self, items: Iterable[object] | np.ndarray) -> int:
        """The body of :meth:`submit`, after lifecycle registration."""
        self._raise_pending()
        values = canonical_u64_array(items)
        for start in range(0, values.size, self.chunk_size):
            self._raise_pending()  # fast-fail between chunks
            plane = HashPlane(values[start:start + self.chunk_size])
            if self._apply(plane.size, self.pool.split(plane)):
                # _apply claimed the pause; this submit stays in flight.
                try:
                    self._quiesce(in_flight=1)
                    self._save_checkpoint(None)
                finally:
                    self._unpause()
        return int(values.size)

    def _apply(self, size: int, parts: list[HashPlane]) -> bool:
        """Bill, apply and count one chunk under one hold of the lock.

        The chunk is billed (:attr:`records_submitted`, the pool's
        routing hash ops) before any of it is applied, so a failure
        mid-chunk leaves ``records_submitted == records_applied +
        records_dropped`` and routing ops equal to submitted records.
        A shard that raises latches its error, which is re-raised; that
        sub-plane (it may be partially applied, so its shard state is
        suspect) and the rest of the chunk count as dropped instead of
        applied. So does the whole chunk when another producer's
        failure has latched.

        Returns whether a periodic checkpoint is due. If so, this call
        has claimed the pause and the caller must run the checkpoint.
        """
        obs = self._obs
        if obs is not None:
            obs.submitted.inc(size)
        applied = applied_parts = 0
        with self._lock:
            # Same routing-hash accounting as ShardPool._record_plane
            # (the pipeline applies pool.split's sub-planes itself).
            if self.pool.num_shards > 1:
                self.pool._route_hash_ops += size
            self.records_submitted += size
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
                dropped = size - applied
                self.records_applied += applied
                self.records_dropped += dropped
                if obs is not None and dropped:
                    obs.dropped.inc(dropped)
                    obs.batches_dropped.inc(
                        sum(1 for part in parts if part.size) - applied_parts
                    )
            if not self.checkpoint_every:
                return False
            self._records_since_checkpoint += size
            # Skipped while a pause is held: a periodic checkpoint waits
            # for the other producers to finish, so two at once would
            # wait on each other forever.
            if (
                self._paused
                or self._records_since_checkpoint < self.checkpoint_every
            ):
                return False
            self._paused = True
            return True

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Hold the pipeline at a safe point for the ``with`` body.

        New submits park at the entry gate, in-flight ones are waited
        out and any other pause of this pipeline is waited for first, so
        no submit or other pause touches the pool during the body, which
        sees it exactly as a synchronous ingest of every returned submit
        left it (lock-free ``query_live`` readers still read). The pause
        is released however the body exits. Raises ``RuntimeError`` on a
        closed pipeline, before pausing anything, and re-raises a
        latched apply failure.
        """
        with self._lock:
            while self._paused and not self._closed:
                self._lock.wait()
            if self._closed:
                raise RuntimeError("cannot pause a closed pipeline")
            self._paused = True
        try:
            self._quiesce(in_flight=0)
            yield
        finally:
            self._unpause()

    def _quiesce(self, in_flight: int) -> None:
        """Wait until ``in_flight`` submits remain, then drain.

        The caller holds the pause. ``in_flight`` is 1 when a submit
        runs its own periodic checkpoint, since it is still registered.
        """
        with self._lock:
            while self._active_submits > in_flight:
                self._lock.wait()
        self.drain()

    def _unpause(self) -> None:
        with self._lock:
            self._paused = False
            self._lock.notify_all()

    def checkpoint_now(
        self, meta: dict[str, Any] | None = None
    ) -> "Generation":
        """Write one checkpoint generation under a pause.

        Requires a ``checkpoint_manager``. The generation captures a
        state exactly equivalent to a synchronous ingest of every
        record submitted so far — never a half-applied chunk from a
        concurrent producer. The metadata records
        :attr:`records_submitted` (plus anything the
        :attr:`checkpoint_meta` hook or the ``meta`` argument adds), so
        a resumed run knows the exact stream offset to replay from.
        Concurrent callers each write their own generation, in turn.
        """
        if self.checkpoint_manager is None:
            raise RuntimeError(
                "pipeline has no checkpoint_manager to checkpoint into"
            )
        with self.paused():
            return self._save_checkpoint(meta)

    def _save_checkpoint(self, meta: dict[str, Any] | None) -> "Generation":
        """Save the paused pool as one generation."""
        # __init__ refuses checkpoint_every without a manager.
        assert self.checkpoint_manager is not None
        merged: dict[str, Any] = {}
        if self.checkpoint_meta is not None:
            merged.update(self.checkpoint_meta())
        if meta:
            merged.update(meta)
        with self._lock:
            merged.setdefault("records_submitted", self.records_submitted)
        generation = self.checkpoint_manager.save(self.pool, meta=merged)
        with self._lock:
            self._records_since_checkpoint = 0
            self.last_generation = generation
        return generation

    def drain(self) -> None:
        """Wait for any chunk being applied, then surface a latched failure.

        Once every producer has returned from :meth:`submit`, the
        estimator state is identical to a synchronous ingest of all
        submitted items — a safe point to query or checkpoint.
        """
        with self._lock:
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
        """Refuse new submits and pauses, wait out in-flight ones, surface
        any failure.

        Thread-safe and idempotent: every call flips the pipeline to
        closed, wakes submits and pauses parked at the gate (they
        raise), waits until no submit or pause is in flight and then
        drains — so a submit racing a close either completes before
        ``close`` returns or raises ``RuntimeError``.
        """
        with self._lock:
            self._closed = True
            self._lock.notify_all()
            while self._active_submits or self._paused:
                self._lock.wait()
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
