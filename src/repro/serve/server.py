"""The asyncio cardinality server.

:class:`CardinalityServer` binds a TCP listener speaking the frame
protocol of :mod:`repro.serve.protocol` over a
:class:`~repro.serve.tenants.TenantRegistry`, with one
:class:`~repro.engine.pipeline.IngestPipeline` per active tenant.

**Connection model.** Each connection is an ``asyncio.BufferedProtocol``
(the callback API, not streams — the hot ESTIMATE path must not pay a
task switch per request). The transport receives straight into the
connection's :class:`~repro.serve.protocol.FrameDecoder`: small frames
into its scratch buffer, a large frame (a bulk RECORD) into a buffer of
its own whose keys reach ``submit`` as a read-only view, uncopied.
Responses are strictly FIFO per connection, so clients pipeline freely:

- while a connection has no asynchronous work pending, fast verbs
  (ESTIMATE, STATS, malformed frames) are answered *inline* inside
  ``buffer_updated`` — a pipelined burst of ESTIMATEs is decoded,
  served and answered with a single ``write`` per read, as long as
  the replies fit under the transport's write high-water mark;
- the first slow verb (RECORD, CHECKPOINT, EXPORT, MERGE_IN), or the
  first frame whose reply would not fit, parks the connection's frames
  in a backlog drained by one sequential task, preserving order until
  the backlog empties, at which point the connection returns to inline
  mode.

**Backpressure.** A connection stops reading (``pause_reading``) while
its backlog holds more than :data:`BACKLOG_HIGH` frames or
:data:`BACKLOG_HIGH_BYTES` body bytes, or while its transport's write
buffer is above its high-water mark (a client that does not read its
replies); it resumes once the backlog is below both low marks and the
write buffer has drained. No reply is written into a write buffer
above its mark: the inline path stops answering before its replies
would pass it, and the backlog task waits for ``resume_writing``, so
the buffer holds at most the mark plus one reply. A RECORD is applied
to its tenant's shards in the executor thread running ``submit``
before it is acknowledged, so a flooding producer stalls in its own
lane; it cannot exhaust server memory.

**Quiescing, one tenant at a time.** Tenants are independent flows,
so no verb needs them all still at once; the only pause is a tenant
pipeline's own :meth:`~repro.engine.pipeline.IngestPipeline.paused`.
EXPORT and MERGE_IN run under their tenant's pause. CHECKPOINT pauses
each tenant in turn, only while it copies that tenant's pool bytes and
record counts, then writes and fsyncs the registry image with no pause
held, so each tenant of a generation is cut at one of its own RECORD
boundaries. :meth:`CardinalityServer.stop` closes every pipeline, then
writes the final generation. Each such verb is one executor job whose
pause is released however the job ends, so a client that vanishes
mid-verb only loses its reply. Tenants are created on the event-loop
thread alone, and each job works from the pipelines it was handed. A
server restarted with ``resume=True`` restores the newest valid
generation and continues bit-exact from it.

**Estimates are lock-free.** ESTIMATE reads the tenant pool's O(1)
query directly — no drain, no locks, no allocation for unknown tenants.
Every acknowledged RECORD has been applied, so the answer reflects all
of them (plus any RECORD another connection has in flight). This is
the paper's operating point: the estimate is available at any instant
at O(1) cost.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Iterable, cast

from repro.engine.pipeline import DEFAULT_CHUNK, IngestPipeline
from repro.estimators.base import CardinalityEstimator, IncompatibleSketchError
from repro.obs.metrics import get_registry
from repro.serve import protocol
from repro.serve.protocol import (
    Checkpoint,
    CheckpointOk,
    Estimate,
    EstimateOk,
    Export,
    ExportOk,
    FrameDecoder,
    MergeIn,
    MergeInOk,
    ProtocolError,
    Record,
    RecordOk,
    Stats,
    StatsOk,
    encode_error,
    encode_response,
)
from repro.serve.tenants import TenantConfig, TenantLimitError, TenantRegistry
from repro.wire import decode_sketch, encode_sketch

if TYPE_CHECKING:
    from repro.engine.recovery import CheckpointManager, Generation

__all__ = ["CardinalityServer"]

#: Per-connection backlog watermarks, in parked frames and in their
#: body bytes. A connection stops reading while its backlog is above
#: either high mark, and resumes once it is below both low marks.
BACKLOG_HIGH = 64
BACKLOG_LOW = 8
BACKLOG_HIGH_BYTES = 1024 * 1024
BACKLOG_LOW_BYTES = 256 * 1024

#: Verbs served on the sequential path. ``handle_inline`` passes them
#: on undecoded, so ``handle`` decodes each such body exactly once.
_SLOW_VERBS = frozenset(
    (protocol.RECORD, protocol.CHECKPOINT, protocol.EXPORT, protocol.MERGE_IN)
)

#: STATS includes the per-tenant record accounting only up to this many
#: tenants; beyond it only the aggregate is reported (the document is
#: sent on every STATS request and must stay bounded).
STATS_TENANT_DETAIL_LIMIT = 256

#: Metric name of each verb served on the sequential path.
_VERB_NAMES = {
    Record: "record",
    Export: "export",
    MergeIn: "merge_in",
    Checkpoint: "checkpoint",
}


def _counts(pipeline: IngestPipeline) -> tuple[int, int, int]:
    """One pipeline's (submitted, applied, dropped) record counts."""
    return (
        pipeline.records_submitted,
        pipeline.records_applied,
        pipeline.records_dropped,
    )


def _totals(counts: Iterable[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Per-tenant (submitted, applied, dropped) record counts, summed."""
    submitted = applied = dropped = 0
    for tenant_submitted, tenant_applied, tenant_dropped in counts:
        submitted += tenant_submitted
        applied += tenant_applied
        dropped += tenant_dropped
    return submitted, applied, dropped


def _merge_into(pipeline: IngestPipeline, frame: bytes) -> float:
    """Fold a sketch frame into a tenant's pool under its pause."""
    sketch = decode_sketch(frame)  # ValueError -> E_BAD_PAYLOAD
    with pipeline.paused():
        pipeline.pool.merge(sketch)  # typed incompatibility errors propagate
        return float(pipeline.pool.query())


class _Connection(asyncio.BufferedProtocol):
    """One client connection: in-place receive, FIFO dispatch, writes."""

    def __init__(self, server: "CardinalityServer") -> None:
        self._server = server
        self._decoder = FrameDecoder(server.max_frame)
        self._backlog: deque[bytes | memoryview] = deque()
        self._parked = 0  # body bytes in _backlog
        self._worker: asyncio.Task | None = None
        self._paused = False
        # Clear while the write buffer is above its high-water mark.
        self._writable = asyncio.Event()
        self._writable.set()
        self.transport: asyncio.Transport | None = None

    # -- asyncio.BufferedProtocol callbacks ----------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        self._server._register_connection(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.transport = None
        if self._worker is not None:
            self._worker.cancel()
        self._server._unregister_connection(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._decoder.get_buffer()

    def buffer_updated(self, nbytes: int) -> None:
        server = self._server
        if server.metrics is not None:
            server.metrics.bytes_read.inc(nbytes)
        out = bytearray()
        room = self._write_room()
        try:
            for body in self._decoder.received(nbytes):
                if self._worker is None:
                    if out and len(out) >= room:
                        # The replies gathered fill the write buffer to
                        # its mark: hand them over, and go on inline
                        # only if the transport sent them on.
                        self._write(bytes(out))
                        out.clear()
                        room = self._write_room()
                    if len(out) < room:
                        response = server.handle_inline(body)
                        if response is not None:
                            out += response
                            continue
                    self._worker = server._loop.create_task(
                        self._drain_backlog()
                    )
                self._backlog.append(body)
                self._parked += len(body)
        except ProtocolError as error:
            # Framing itself is lost: answer once, then hang up.
            out += encode_error(error.code, str(error))
            self._write(bytes(out))
            if server.metrics is not None:
                server.metrics.error(error.code)
            if self.transport is not None:
                self.transport.close()
            return
        if out:
            self._write(bytes(out))
        self._maybe_pause()

    def eof_received(self) -> bool:
        return False  # close when the peer half-closes

    def pause_writing(self) -> None:
        self._writable.clear()
        self._maybe_pause()

    def resume_writing(self) -> None:
        self._writable.set()
        self._maybe_resume()

    # -- internals -----------------------------------------------------
    def _write_room(self) -> int:
        """Reply bytes the write buffer takes before its high-water mark."""
        if self.transport is None:
            return 0
        high = self.transport.get_write_buffer_limits()[1]
        return high - self.transport.get_write_buffer_size()

    def _write(self, payload: bytes) -> None:
        if self.transport is None:
            return
        self.transport.write(payload)
        if self._server.metrics is not None:
            self._server.metrics.bytes_written.inc(len(payload))

    def _maybe_pause(self) -> None:
        if (
            not self._paused
            and self.transport is not None
            and (
                len(self._backlog) > BACKLOG_HIGH
                or self._parked > BACKLOG_HIGH_BYTES
                or not self._writable.is_set()
            )
        ):
            self._paused = True
            self.transport.pause_reading()

    def _maybe_resume(self) -> None:
        if (
            self._paused
            and self.transport is not None
            and len(self._backlog) < BACKLOG_LOW
            and self._parked < BACKLOG_LOW_BYTES
            and self._writable.is_set()
        ):
            self._paused = False
            self.transport.resume_reading()

    async def _drain_backlog(self) -> None:
        """Serve backlogged frames in order, then return to inline mode."""
        try:
            while self._backlog:
                # Write no reply into a buffer above its mark.
                await self._writable.wait()
                body = self._backlog.popleft()
                self._parked -= len(body)
                self._maybe_resume()
                try:
                    response = await self._server.handle(body)
                except Exception as error:
                    # An unexpected handler failure must not kill the
                    # drain task: the stranded frames would never be
                    # answered while later fast verbs are served inline
                    # ahead of them, breaking FIFO for pipelining
                    # clients. Answer E_INTERNAL and keep draining.
                    response = self._server._error(
                        protocol.E_INTERNAL, f"internal error: {error!r}"
                    )
                self._write(response)
        finally:
            # No await between the empty-backlog check and this line,
            # so buffer_updated cannot have parked a frame that nobody
            # will drain.
            self._worker = None
            if self._backlog and self.transport is not None:
                # Exited with frames still parked (cancellation or a
                # non-Exception failure): responses can no longer be
                # delivered in order, so hang up rather than desync.
                self.transport.close()
            self._maybe_resume()


class CardinalityServer:
    """The serving layer: a TCP frame server over a tenant registry.

    Parameters
    ----------
    config:
        Estimator sizing shared by every tenant.
    checkpoint_manager:
        Optional durability wiring; enables the CHECKPOINT verb, the
        final checkpoint of :meth:`stop`, and ``resume``.
    resume:
        Restore the newest valid generation from the manager's
        directory at :meth:`start` (fresh start when none restores).
    chunk_size:
        Per-tenant :class:`~repro.engine.pipeline.IngestPipeline`
        chunk size. Tenants cost no threads: every RECORD is applied in
        the default executor's threads.
    """

    def __init__(
        self,
        config: TenantConfig | None = None,
        checkpoint_manager: "CheckpointManager | None" = None,
        resume: bool = False,
        chunk_size: int = DEFAULT_CHUNK,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
    ) -> None:
        self.config = config if config is not None else TenantConfig()
        self.checkpoint_manager = checkpoint_manager
        self.resume = bool(resume)
        self.chunk_size = int(chunk_size)
        self.max_frame = int(max_frame)
        self.registry = TenantRegistry(self.config)
        #: Number of the newest generation saved or restored (0 = none).
        self.last_generation = 0
        self._pipelines: dict[str, IngestPipeline] = {}
        self._connections: set[_Connection] = set()
        # Held over a CHECKPOINT's copy and write and over stop()'s
        # close and final write, so generations are numbered in the
        # order their states were taken and the final one is newest.
        self._saving = threading.Lock()
        self._listener: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop = None  # type: ignore[assignment]
        self._shutting_down = False
        self._started_at = 0.0
        obs = get_registry()
        if obs.enabled:
            from repro.obs.instrument import ServerMetrics

            self.metrics: "ServerMetrics | None" = ServerMetrics(obs)
        else:
            self.metrics = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and listen; returns the actual (host, port) bound.

        With ``resume=True`` and a checkpoint manager, the newest valid
        generation is restored first (a missing or unreadable directory
        falls back to a fresh registry — the same semantics as the
        engine CLI's ``--resume``).
        """
        if self._listener is not None:
            raise RuntimeError("server is already started")
        self._loop = asyncio.get_running_loop()
        self._started_at = time.perf_counter()
        if self.resume and self.checkpoint_manager is not None:
            from repro.engine.recovery import RecoveryError

            try:
                restored, generation = self.checkpoint_manager.load_latest()
            except RecoveryError:
                pass  # nothing restorable: fresh start
            else:
                if not isinstance(restored, TenantRegistry):
                    raise RecoveryError(
                        "checkpoint directory holds a "
                        f"{type(restored).__name__}, not a TenantRegistry"
                    )
                if (
                    restored.config.canonical_json()
                    != self.config.canonical_json()
                ):
                    # Adopting the checkpoint's config would silently
                    # ignore the server's sizing flags; keeping the
                    # server's would mis-describe the restored pools.
                    raise RecoveryError(
                        "checkpointed tenant config does not match the "
                        f"server's: checkpoint has "
                        f"{restored.config.canonical_json()}, server "
                        f"configured {self.config.canonical_json()}; "
                        "restart with matching sizing flags or point at "
                        "a fresh checkpoint directory"
                    )
                self.registry = restored
                self.last_generation = generation.generation
                for tenant in restored.tenants():
                    self._pipeline(tenant)  # every tenant has a pipeline
        self._listener = await self._loop.create_server(
            lambda: _Connection(self), host, port
        )
        sockets = self._listener.sockets
        bound = sockets[0].getsockname()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        """Block until the listener is closed (by :meth:`stop`)."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        try:
            await self._listener.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> "Generation | None":
        """Graceful drain: stop accepting, close every pipeline, checkpoint.

        New RECORD/CHECKPOINT/EXPORT/MERGE_IN requests are refused with
        SHUTTING_DOWN. Every pipeline is then closed, which waits out
        its in-flight submits and pauses, and — when a manager is
        configured — one final generation captures the fully-applied
        registry, so a ``resume`` restart is bit-exact with no replay.
        A CHECKPOINT still being written finishes first, so the final
        generation is the newest.
        """
        self._shutting_down = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        final = await self._loop.run_in_executor(
            None, self._close_and_checkpoint, list(self._pipelines.values())
        )
        for connection in list(self._connections):
            if connection.transport is not None:
                connection.transport.close()
        return final

    def _close_and_checkpoint(
        self, pipelines: list[IngestPipeline]
    ) -> "Generation | None":
        with self._saving:
            for pipeline in pipelines:
                pipeline.close()
            if self.checkpoint_manager is None:
                return None
            counts = [_counts(pipeline) for pipeline in pipelines]
            return self._save(self.registry, counts, final=True)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle_inline(self, body: bytes | memoryview) -> bytes | None:
        """Serve one frame synchronously if it needs no awaiting.

        Returns the encoded response for fast verbs (ESTIMATE, STATS),
        unknown verbs and empty bodies. Returns ``None``, without
        decoding the body, for slow verbs (RECORD, CHECKPOINT, EXPORT,
        MERGE_IN): the caller queues them for :meth:`handle`, which
        decodes them and answers a malformed one with its error frame.
        """
        if body and body[0] in _SLOW_VERBS:
            return None
        metrics = self.metrics
        began = time.perf_counter() if metrics is not None else 0.0
        try:
            request = protocol.decode_request(body)
        except ProtocolError as error:
            if metrics is not None:
                metrics.error(error.code)
            return encode_error(error.code, str(error))
        if isinstance(request, (Estimate, Stats)):
            return self._respond_fast(request, began)
        return None

    def _respond_fast(
        self, request: Estimate | Stats, began: float
    ) -> bytes:
        try:
            if isinstance(request, Estimate):
                response = encode_response(
                    EstimateOk(self._estimate(request.tenant))
                )
                verb = "estimate"
            else:
                response = encode_response(StatsOk(self.stats_document()))
                verb = "stats"
        except Exception as error:
            # The lock-free fast path reads estimator state that
            # executor threads mutate concurrently; an exception here
            # (however unlikely — SMB.query snapshots its counters)
            # must become an error *frame*, not escape data_received
            # and tear the connection down.
            return self._error(protocol.E_INTERNAL, f"query failed: {error!r}")
        metrics = self.metrics
        if metrics is not None:
            metrics.requests[verb].inc()
            metrics.latency[verb].observe(time.perf_counter() - began)
        return response

    async def handle(self, body: bytes | memoryview) -> bytes:
        """Serve one frame on the sequential (backlog) path.

        RECORD, EXPORT, MERGE_IN and CHECKPOINT each run as one executor
        job. Cancelling the await loses only the reply: the job, and the
        pause it may hold, runs to its end regardless.
        """
        metrics = self.metrics
        began = time.perf_counter() if metrics is not None else 0.0
        try:
            request = protocol.decode_request(body)
        except ProtocolError as error:
            if metrics is not None:
                metrics.error(error.code)
            return encode_error(error.code, str(error))
        if isinstance(request, (Estimate, Stats)):
            return self._respond_fast(request, began)
        if metrics is not None:
            metrics.in_flight.inc()
        try:
            response = await self._respond_slow(request)
        finally:
            if metrics is not None:
                metrics.in_flight.dec()
        if metrics is not None:
            verb = _VERB_NAMES[type(request)]
            metrics.requests[verb].inc()
            metrics.latency[verb].observe(time.perf_counter() - began)
        return response

    async def _respond_slow(
        self, request: Record | Export | MergeIn | Checkpoint
    ) -> bytes:
        if isinstance(request, Checkpoint) and self.checkpoint_manager is None:
            return self._error(
                protocol.E_INTERNAL,
                "checkpointing is not configured (start the server with "
                "a checkpoint directory)",
            )
        if self._shutting_down:
            return self._error(
                protocol.E_SHUTTING_DOWN, "server is draining"
            )
        run = self._loop.run_in_executor
        try:
            if isinstance(request, Record):
                pipeline = self._pipeline(request.tenant)
                accepted = await run(None, pipeline.submit, request.keys)
                # Every key is applied by now: a failed apply raised.
                return encode_response(RecordOk(int(accepted)))
            if isinstance(request, Export):
                frame = await run(
                    None, self._export_sync, request.tenant,
                    self._pipelines.get(request.tenant),
                )
                return encode_response(ExportOk(frame))
            if isinstance(request, MergeIn):
                return await self._merge_in(request)
            generation = await run(
                None, self._checkpoint_sync, list(self._pipelines.items())
            )
            return encode_response(CheckpointOk(generation.generation))
        except TenantLimitError as error:
            return self._error(protocol.E_OVERLOADED, str(error))
        except (OSError, RuntimeError, ValueError) as error:
            # stop() closes every pipeline; a job that found its
            # pipeline closed raised before changing anything.
            code = (
                protocol.E_SHUTTING_DOWN
                if self._shutting_down
                else protocol.E_INTERNAL
            )
            return self._error(code, str(error))

    async def _merge_in(self, request: MergeIn) -> bytes:
        pipeline = self._pipeline(request.tenant)
        try:
            estimate = await self._loop.run_in_executor(
                None, _merge_into, pipeline, request.frame
            )
        except (IncompatibleSketchError, TypeError, NotImplementedError) as error:
            # A bad sketch is the *request's* problem, not the
            # connection's: answer a typed error frame and keep serving.
            return self._error(protocol.E_INCOMPATIBLE, str(error))
        except ValueError as error:
            return self._error(
                protocol.E_BAD_PAYLOAD, f"undecodable sketch frame: {error}"
            )
        return encode_response(MergeInOk(estimate))

    def _export_sync(
        self, tenant: str, pipeline: IngestPipeline | None
    ) -> bytes:
        if pipeline is None:
            # Unknown tenant: export a deterministic empty pool without
            # registering it — EXPORT, like ESTIMATE, never mutates the
            # registry, and the empty frame merges as the identity.
            return encode_sketch(self.config.build_pool(tenant))
        with pipeline.paused():
            return encode_sketch(pipeline.pool)

    def _checkpoint_sync(
        self, tenants: list[tuple[str, IngestPipeline]]
    ) -> "Generation":
        image = TenantRegistry(self.config)
        counts: list[tuple[int, int, int]] = []
        with self._saving:
            if self._shutting_down:
                # stop() has written, or is about to write, the final
                # generation; nothing may be numbered after it.
                raise RuntimeError("server is draining")
            for tenant, pipeline in tenants:
                with pipeline.paused():
                    image.images[tenant] = pipeline.pool.to_bytes()
                    counts.append(_counts(pipeline))
            return self._save(image, counts, final=False)

    def _save(
        self,
        image: TenantRegistry,
        counts: list[tuple[int, int, int]],
        final: bool,
    ) -> "Generation":
        """Write one generation; the caller holds ``_saving``."""
        assert self.checkpoint_manager is not None
        submitted, applied, dropped = _totals(counts)
        generation = self.checkpoint_manager.save(
            cast(CardinalityEstimator, image),
            meta={
                "records_submitted": submitted,
                "records_applied": applied,
                "records_dropped": dropped,
                "tenants": len(counts),
                "final": final,
            },
        )
        self.last_generation = generation.generation
        return generation

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _pipeline(self, tenant: str) -> IngestPipeline:
        pipeline = self._pipelines.get(tenant)
        if pipeline is None:
            pool = self.registry.pool(tenant)  # may raise TenantLimitError
            pipeline = IngestPipeline(pool, chunk_size=self.chunk_size)
            self._pipelines[tenant] = pipeline
            if self.metrics is not None:
                self.metrics.tenants.set(len(self.registry))
        return pipeline

    def _estimate(self, tenant: str) -> float:
        """The tenant's live estimate (the ESTIMATE fast path).

        Every known tenant has a pipeline and answers through its
        lock-free ``query_live``; an unknown tenant reads 0.0 from the
        registry and allocates nothing.
        """
        pipeline = self._pipelines.get(tenant)
        if pipeline is not None:
            return pipeline.query_live()
        return self.registry.estimate(tenant)

    def _record_totals(self) -> tuple[int, int, int]:
        return _totals(_counts(pipe) for pipe in self._pipelines.values())

    def stats_document(self) -> dict:
        """The STATS response body (also useful for in-process tests).

        ``records`` satisfies ``submitted == applied + dropped`` whenever
        no RECORD is in flight; mid-flight, ``applied`` lags
        ``submitted`` by the chunks being applied.
        """
        submitted, applied, dropped = self._record_totals()
        document: dict = {
            "tenants": len(self.registry),
            "connections": len(self._connections),
            "shutting_down": self._shutting_down,
            "uptime_seconds": (
                time.perf_counter() - self._started_at
                if self._started_at
                else 0.0
            ),
            "records": {
                "submitted": submitted,
                "applied": applied,
                "dropped": dropped,
            },
            "checkpoint": {
                "configured": self.checkpoint_manager is not None,
                "generation": self.last_generation,
            },
        }
        if len(self.registry) <= STATS_TENANT_DETAIL_LIMIT:
            document["per_tenant"] = {
                tenant: {
                    "submitted": pipe.records_submitted,
                    "applied": pipe.records_applied,
                    "dropped": pipe.records_dropped,
                }
                for tenant, pipe in sorted(self._pipelines.items())
            }
        obs = get_registry()
        if obs.enabled:
            from repro.obs.render import snapshot

            document["metrics"] = snapshot(obs)["metrics"]
        return document

    def _error(self, code: int, message: str) -> bytes:
        if self.metrics is not None:
            self.metrics.error(code)
        return encode_error(code, message)

    # -- connection registry -------------------------------------------
    def _register_connection(self, connection: _Connection) -> None:
        self._connections.add(connection)
        if self.metrics is not None:
            self.metrics.connections.set(len(self._connections))
            self.metrics.connections_total.inc()

    def _unregister_connection(self, connection: _Connection) -> None:
        self._connections.discard(connection)
        if self.metrics is not None:
            self.metrics.connections.set(len(self._connections))

    def __repr__(self) -> str:
        return (
            f"CardinalityServer(tenants={len(self.registry)}, "
            f"connections={len(self._connections)}, "
            f"generation={self.last_generation}, "
            f"shutting_down={self._shutting_down})"
        )
