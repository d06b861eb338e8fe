"""Integration tests of the serving layer (in-process server).

An ephemeral :class:`~repro.serve.server.CardinalityServer` on
127.0.0.1:0 is driven through real sockets by asyncio clients:

- the headline test interleaves RECORD/ESTIMATE from several concurrent
  clients across *overlapping* tenants (disjoint key lanes per
  client/tenant pair keep the exact oracle in closed form), drains with
  CHECKPOINT, and checks every tenant's estimate against the oracle
  within the Theorem-3 tolerance of its SMB configuration — plus the
  ``submitted == applied + dropped`` accounting from STATS;
- protocol-level misbehavior over a live socket: garbage payloads get
  an ERROR frame while the connection keeps serving, broken framing
  gets an ERROR frame and a close;
- graceful stop + resume round-trips the whole registry bit-exactly,
  and a registry image restores only pools its config would build.

No pytest-asyncio in the toolchain: each test wraps its coroutine in
``asyncio.run`` — event-loop lifecycle is part of what is under test.
"""

import asyncio
import os
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.theory import smb_error_bound
from repro.core.tuning import optimal_threshold
from repro.engine import checkpoint
from repro.engine.pipeline import IngestPipeline
from repro.engine.shards import ShardPool
from repro.engine.recovery import CheckpointManager, RecoveryError, RetryPolicy
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import (
    BACKLOG_HIGH,
    BACKLOG_HIGH_BYTES,
    BACKLOG_LOW,
    BACKLOG_LOW_BYTES,
    STATS_TENANT_DETAIL_LIMIT,
    CardinalityServer,
    _Connection,
)
from repro.serve.tenants import TenantConfig, TenantRegistry
from repro.testing.faults import fault_plan
from repro.wire import encode_sketch

MEMORY_BITS = 5000
DESIGN = 200_000


def make_config(**overrides) -> TenantConfig:
    base = dict(
        estimator="SMB",
        memory_bits=MEMORY_BITS,
        design_cardinality=DESIGN,
        shards=1,
        seed=7,
    )
    base.update(overrides)
    return TenantConfig(**base)


def manager(tmp_path, keep: int = 3) -> CheckpointManager:
    return CheckpointManager(
        tmp_path / "ckpts",
        keep=keep,
        sync_directory=False,
        orphan_grace=0.0,
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda s: None),
    )


def theorem3_tolerance(n: int, confidence: float = 0.99) -> float:
    """Smallest δ Theorem 3 guarantees at cardinality n for our config."""
    threshold = optimal_threshold(MEMORY_BITS, DESIGN)
    for delta in np.linspace(0.005, 0.95, 400):
        if (
            smb_error_bound(float(delta), float(n), MEMORY_BITS, threshold)
            >= confidence
        ):
            return float(delta)
    pytest.fail("no δ < 0.95 reaches the requested confidence")


async def start_server(server: CardinalityServer) -> tuple[str, int]:
    return await server.start("127.0.0.1", 0)


def body_of(request) -> bytes:
    """A request's frame body, as ``CardinalityServer.handle`` takes it."""
    return protocol.encode_request(request)[4:]


def response_of(framed: bytes):
    return protocol.decode_response(framed[4:])


def key_range(start: int, count: int) -> np.ndarray:
    return np.arange(start, start + count, dtype=np.uint64)


def record_body(tenant: str, start: int, count: int) -> bytes:
    """The body of a RECORD of ``count`` consecutive keys from ``start``."""
    return body_of(protocol.Record(tenant, key_range(start, count)))


# ----------------------------------------------------------------------
# Concurrency: interleaved clients over overlapping tenants
# ----------------------------------------------------------------------

def test_concurrent_clients_within_theorem3_tolerance(tmp_path):
    """N clients interleaving RECORD/ESTIMATE across shared tenants."""
    clients = 4
    tenants = ["shared-a", "shared-b", "shared-c"]
    rounds = 6
    batch = 4096

    async def one_client(host, port, client_index):
        async with await ServeClient.connect(host, port) as client:
            for round_index in range(rounds):
                tenant_index = (client_index + round_index) % len(tenants)
                lane = client_index * len(tenants) + tenant_index
                start = (lane + 1) * 10**9 + round_index * batch
                accepted = await client.record(
                    tenants[tenant_index],
                    np.arange(start, start + batch, dtype=np.uint64),
                )
                assert accepted == batch
                # Interleave the high-QPS verb against a tenant another
                # client is concurrently writing — must never error.
                other = tenants[(tenant_index + 1) % len(tenants)]
                value = await client.estimate(other)
                assert value >= 0.0

    async def scenario():
        server = CardinalityServer(
            make_config(), checkpoint_manager=manager(tmp_path)
        )
        host, port = await start_server(server)
        try:
            await asyncio.gather(
                *(one_client(host, port, index) for index in range(clients))
            )
            async with await ServeClient.connect(host, port) as control:
                generation = await control.checkpoint()  # drains
                assert generation >= 1
                estimates = {
                    tenant: await control.estimate(tenant)
                    for tenant in tenants
                }
                stats = await control.stats()
        finally:
            await server.stop()
        return estimates, stats

    estimates, stats = asyncio.run(scenario())

    # Exact oracle: every (client, tenant, round) lane is disjoint, so
    # a tenant's distinct count is (rounds hitting it across clients).
    exact = {tenant: 0 for tenant in tenants}
    for client_index in range(clients):
        for round_index in range(rounds):
            tenant = tenants[(client_index + round_index) % len(tenants)]
            exact[tenant] += batch
    for tenant in tenants:
        relative = abs(estimates[tenant] - exact[tenant]) / exact[tenant]
        assert relative <= theorem3_tolerance(exact[tenant]), (
            f"{tenant}: estimate {estimates[tenant]:.0f} vs exact "
            f"{exact[tenant]} (rel {relative:.4f})"
        )

    records = stats["records"]
    total_keys = clients * rounds * batch
    assert records["submitted"] == total_keys
    assert records["submitted"] == records["applied"] + records["dropped"]
    assert records["dropped"] == 0
    per_tenant = stats["per_tenant"]
    assert set(per_tenant) == set(tenants)
    for tenant in tenants:
        entry = per_tenant[tenant]
        assert entry["submitted"] == exact[tenant]
        assert entry["submitted"] == entry["applied"] + entry["dropped"]


# ----------------------------------------------------------------------
# Protocol behavior over a live socket
# ----------------------------------------------------------------------

def test_garbage_payload_gets_error_frame_and_connection_survives():
    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            # A garbage body inside valid framing, then a valid request.
            writer.write(protocol.encode_frame(b"\xee nonsense"))
            writer.write(
                protocol.encode_request(protocol.Estimate("nobody"))
            )
            await writer.drain()
            decoder = protocol.FrameDecoder()
            responses = []
            while len(responses) < 2:
                chunk = await reader.read(65536)
                assert chunk, "server closed a recoverable connection"
                responses.extend(
                    protocol.decode_response(body)
                    for body in decoder.feed(chunk)
                )
            writer.close()
            return responses
        finally:
            await server.stop()

    first, second = asyncio.run(scenario())
    assert isinstance(first, protocol.Error)
    assert first.code == protocol.E_UNKNOWN_VERB
    assert isinstance(second, protocol.EstimateOk)
    assert second.estimate == 0.0  # unknown tenant reads as empty


def test_record_body_is_decoded_once(monkeypatch):
    """The inline path passes a RECORD on undecoded; ``handle`` decodes
    it, and a malformed RECORD gets the error frame its decode raises."""
    decode = protocol.decode_request
    decoded = []

    def counting(body):
        decoded.append(body[0])
        return decode(body)

    monkeypatch.setattr(protocol, "decode_request", counting)
    record = protocol.encode_request(
        protocol.Record("t", np.arange(100, dtype=np.uint64))
    )[4:]
    malformed = record[:-1]  # one key byte short
    with pytest.raises(protocol.ProtocolError) as caught:
        decode(malformed)

    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(protocol.encode_frame(record))
            writer.write(protocol.encode_frame(malformed))
            await writer.drain()
            decoder = protocol.FrameDecoder()
            responses = []
            while len(responses) < 2:
                chunk = await reader.read(65536)
                assert chunk, "server closed a recoverable connection"
                responses.extend(decoder.feed(chunk))
            writer.close()
            return responses
        finally:
            await server.stop()

    accepted, error = asyncio.run(scenario())
    assert decoded == [protocol.RECORD, protocol.RECORD]
    assert protocol.decode_response(accepted) == protocol.RecordOk(100)
    assert protocol.encode_frame(error) == protocol.encode_error(
        caught.value.code, str(caught.value)
    )


def test_broken_framing_gets_error_frame_then_close():
    async def scenario():
        server = CardinalityServer(make_config(), max_frame=1024)
        host, port = await start_server(server)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(struct.pack("<I", 2**31))  # absurd length prefix
            await writer.drain()
            payload = await reader.read()  # server answers, then EOF
            writer.close()
            return payload
        finally:
            await server.stop()

    payload = asyncio.run(scenario())
    decoder = protocol.FrameDecoder()
    (body,) = list(decoder.feed(payload))
    error = protocol.decode_response(body)
    assert isinstance(error, protocol.Error)
    assert error.code == protocol.E_BAD_FRAME
    decoder.check_eof()  # nothing after the error frame


def test_tenant_limit_is_overloaded_error():
    async def scenario():
        server = CardinalityServer(make_config(max_tenants=1))
        host, port = await start_server(server)
        try:
            async with await ServeClient.connect(host, port) as client:
                await client.record(
                    "first", np.arange(10, dtype=np.uint64)
                )
                with pytest.raises(ServeError) as caught:
                    await client.record(
                        "second", np.arange(10, dtype=np.uint64)
                    )
                # At the limit, the tenant already held keeps recording.
                accepted = await client.record(
                    "first", np.arange(10, 20, dtype=np.uint64)
                )
                stats = await client.stats()
                return (caught.value, accepted, stats,
                        server.registry.tenants())
        finally:
            await server.stop()

    error, accepted, stats, tenants = asyncio.run(scenario())
    assert error.code == protocol.E_OVERLOADED
    assert error.transient  # RetryPolicy will retry it
    assert accepted == 10
    assert stats["tenants"] == 1
    assert tenants == ["first"]


def test_checkpoint_without_manager_is_clean_error():
    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)
        try:
            async with await ServeClient.connect(host, port) as client:
                with pytest.raises(ServeError) as caught:
                    await client.checkpoint()
                return caught.value
        finally:
            await server.stop()

    assert asyncio.run(scenario()).code == protocol.E_INTERNAL


def test_stats_document_shape():
    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)
        try:
            async with await ServeClient.connect(host, port) as client:
                await client.record(
                    "alpha", np.arange(1000, dtype=np.uint64)
                )
                return await client.stats()
        finally:
            await server.stop()

    stats = asyncio.run(scenario())
    assert stats["tenants"] == 1
    assert stats["connections"] == 1
    assert stats["shutting_down"] is False
    assert stats["records"]["submitted"] == 1000
    assert stats["checkpoint"] == {"configured": False, "generation": 0}
    assert "alpha" in stats["per_tenant"]


# ----------------------------------------------------------------------
# Per-tenant pauses: cancellation, independence, stop ordering
# ----------------------------------------------------------------------

def sleep_for(seconds: float):
    """A failpoint action that holds its thread for ``seconds``."""
    return lambda: time.sleep(seconds)


@pytest.mark.parametrize("verb", ["checkpoint", "export", "merge_in"])
def test_cancelled_verb_parked_behind_a_slow_record_wedges_nothing(
    tmp_path, verb
):
    """A client that vanishes mid-verb loses its reply and nothing else.

    The verb's job runs on in its executor thread and releases its
    pause, so RECORD, CHECKPOINT and stop() all still complete, and a
    cancelled MERGE_IN has still folded its sketch in.
    """
    config = make_config(estimator="HLL")
    donor = config.build_pool("alpha")
    donor.record_many(key_range(10**6, 500))
    request = {
        "checkpoint": protocol.Checkpoint(),
        "export": protocol.Export("alpha"),
        "merge_in": protocol.MergeIn("alpha", encode_sketch(donor)),
    }[verb]

    async def scenario():
        server = CardinalityServer(
            config, checkpoint_manager=manager(tmp_path)
        )
        await start_server(server)
        try:
            await server.handle(record_body("alpha", 0, 64))
            with fault_plan() as plan:
                # The next RECORD sleeps mid-apply, inside its submit.
                plan.arm("pipeline.worker-apply", action=sleep_for(0.3))
                record = asyncio.ensure_future(
                    server.handle(record_body("alpha", 64, 64))
                )
                await asyncio.sleep(0.05)  # the RECORD is mid-apply
                parked = asyncio.ensure_future(server.handle(body_of(request)))
                await asyncio.sleep(0.05)  # the verb waits for its pause
                parked.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await parked
                assert isinstance(response_of(await record), protocol.RecordOk)
            answer = await asyncio.wait_for(
                server.handle(record_body("alpha", 128, 64)), timeout=5.0
            )
            assert response_of(answer) == protocol.RecordOk(64)
            answer = await asyncio.wait_for(
                server.handle(body_of(protocol.Checkpoint())), timeout=5.0
            )
            assert isinstance(response_of(answer), protocol.CheckpointOk)
        finally:
            await asyncio.wait_for(server.stop(), timeout=10.0)
        return server.registry.to_bytes()

    image = asyncio.run(scenario())
    oracle = TenantRegistry(config)
    oracle.record_many("alpha", key_range(0, 192))
    if verb == "merge_in":
        oracle.pools["alpha"].merge(donor)
    assert image == oracle.to_bytes()


def test_export_is_not_held_by_another_tenants_record():
    """EXPORT pauses only its own tenant: a RECORD of tenant ``b`` held
    mid-apply for 0.5 s does not delay an EXPORT of tenant ``a``."""

    async def scenario():
        server = CardinalityServer(make_config())
        await start_server(server)
        try:
            await server.handle(record_body("a", 0, 1000))
            with fault_plan() as plan:
                plan.arm("pipeline.worker-apply", action=sleep_for(0.5))
                held = asyncio.ensure_future(
                    server.handle(record_body("b", 0, 64))
                )
                await asyncio.sleep(0.05)  # b's submit is mid-apply
                began = time.perf_counter()
                answer = await server.handle(body_of(protocol.Export("a")))
                elapsed = time.perf_counter() - began
                await held
        finally:
            await server.stop()
        return response_of(answer), elapsed

    answer, elapsed = asyncio.run(scenario())
    assert isinstance(answer, protocol.ExportOk)
    assert elapsed < 0.1, f"EXPORT of a took {elapsed * 1e3:.0f} ms"


def test_cancelled_checkpoint_mid_write_then_stop_keeps_final_newest(tmp_path):
    """A CHECKPOINT cancelled while its write is held at
    ``checkpoint.pre-fsync`` still finishes first; the RECORDs that land
    meanwhile reach stop()'s final generation, which a resume restores."""
    config = make_config()
    oracle = TenantRegistry(config)

    async def first_run():
        server = CardinalityServer(
            config, checkpoint_manager=manager(tmp_path)
        )
        await start_server(server)
        for tenant in ("a", "b"):
            await server.handle(record_body(tenant, 0, 500))
            oracle.record_many(tenant, key_range(0, 500))
        with fault_plan() as plan:
            plan.arm("checkpoint.pre-fsync", action=sleep_for(0.3))
            saving = asyncio.ensure_future(
                server.handle(body_of(protocol.Checkpoint()))
            )
            await asyncio.sleep(0.05)  # the write is held at pre-fsync
            saving.cancel()
            with pytest.raises(asyncio.CancelledError):
                await saving
            # No pause is held while a generation is written.
            answer = await server.handle(record_body("a", 500, 500))
            assert response_of(answer) == protocol.RecordOk(500)
            oracle.record_many("a", key_range(500, 500))
            final = await asyncio.wait_for(server.stop(), timeout=10.0)
        return final.generation

    async def resumed_run():
        server = CardinalityServer(
            config, checkpoint_manager=manager(tmp_path), resume=True
        )
        await start_server(server)
        try:
            return server.last_generation, server.registry.to_bytes()
        finally:
            await server.stop()

    final = asyncio.run(first_run())
    assert final == 2  # the cancelled CHECKPOINT still wrote generation 1
    resumed, image = asyncio.run(resumed_run())
    assert resumed == final
    assert image == oracle.to_bytes()


def test_every_generation_cuts_each_tenant_at_a_record_boundary(tmp_path):
    """One connection per tenant feeds RECORDs while CHECKPOINTs run:
    each generation restores every tenant to a prefix of its own RECORD
    stream (tenants are cut independently, each at a RECORD boundary).
    Each RECORD dwells between its two shards' applies, where a cut
    would tear it."""
    config = make_config(shards=2)
    tenants = ["a", "b", "c"]
    batches = 12
    size = 700

    def batch(tenant_index: int, index: int) -> np.ndarray:
        return key_range((tenant_index + 1) * 10**9 + index * size, size)

    async def feed(host, port, tenant_index):
        async with await ServeClient.connect(host, port) as client:
            for index in range(batches):
                await client.record(
                    tenants[tenant_index], batch(tenant_index, index)
                )

    async def scenario():
        server = CardinalityServer(
            config, checkpoint_manager=manager(tmp_path, keep=100)
        )
        host, port = await start_server(server)
        try:
            with fault_plan() as plan:
                plan.arm(
                    "pipeline.worker-apply", action=sleep_for(0.002),
                    times=10**9,
                )
                feeders = [
                    asyncio.ensure_future(feed(host, port, index))
                    for index in range(len(tenants))
                ]
                async with await ServeClient.connect(host, port) as control:
                    while not all(feeder.done() for feeder in feeders):
                        await control.checkpoint()
                await asyncio.gather(*feeders)
        finally:
            await server.stop()

    asyncio.run(scenario())
    oracle = TenantRegistry(config)
    prefixes = {}
    for tenant_index, tenant in enumerate(tenants):
        pool = oracle.pool(tenant)
        prefixes[tenant] = {pool.to_bytes()}
        for index in range(batches):
            pool.record_many(batch(tenant_index, index))
            prefixes[tenant].add(pool.to_bytes())
    *taken, final = manager(tmp_path, keep=100).generations()
    assert taken and final.meta["final"]
    for generation in taken:
        registry = checkpoint.load(generation.path)
        for tenant, pool in registry.pools.items():
            at_boundary = pool.to_bytes() in prefixes[tenant]
            assert at_boundary, (
                f"generation {generation.generation} cut {tenant!r} "
                "mid-RECORD"
            )
    # stop()'s final generation holds every RECORD of every tenant.
    assert checkpoint.load(final.path).to_bytes() == oracle.to_bytes()


@pytest.mark.parametrize("verb", ["record", "merge_in"])
def test_verb_reaching_a_closed_pipeline_is_shutting_down(
    tmp_path, monkeypatch, verb
):
    """A verb admitted before stop() whose job reaches its pipeline
    after stop() closed it answers E_SHUTTING_DOWN and changes nothing:
    the final generation and the registry hold only what came before."""
    config = make_config(estimator="HLL")
    donor = config.build_pool("alpha")
    donor.record_many(key_range(10**6, 500))
    request = {
        "record": protocol.Record("alpha", key_range(1000, 100)),
        "merge_in": protocol.MergeIn("alpha", encode_sketch(donor)),
    }[verb]

    async def scenario():
        server = CardinalityServer(
            config, checkpoint_manager=manager(tmp_path)
        )
        await start_server(server)
        await server.handle(record_body("alpha", 0, 1000))
        real_submit, real_paused = IngestPipeline.submit, IngestPipeline.paused

        def late_submit(self, items):
            time.sleep(0.2)  # stop() closes the pipeline meanwhile
            return real_submit(self, items)

        def late_paused(self):
            time.sleep(0.2)
            return real_paused(self)

        monkeypatch.setattr(IngestPipeline, "submit", late_submit)
        monkeypatch.setattr(IngestPipeline, "paused", late_paused)
        late = asyncio.ensure_future(server.handle(body_of(request)))
        await asyncio.sleep(0)  # admitted: its job is on its way
        final = await server.stop()
        return response_of(await late), final, server.registry.to_bytes()

    answer, final, image = asyncio.run(scenario())
    assert isinstance(answer, protocol.Error)
    assert answer.code == protocol.E_SHUTTING_DOWN
    oracle = TenantRegistry(config)
    oracle.record_many("alpha", key_range(0, 1000))
    assert image == oracle.to_bytes()
    assert checkpoint.load(final.path).to_bytes() == oracle.to_bytes()


@pytest.mark.parametrize(
    "tenants, detailed",
    [(STATS_TENANT_DETAIL_LIMIT, True), (STATS_TENANT_DETAIL_LIMIT + 1, False)],
)
def test_stats_tenant_detail_limit_boundary(tenants, detailed):
    """STATS carries ``per_tenant`` up to the limit, and not past it."""

    async def scenario():
        server = CardinalityServer(make_config())
        await start_server(server)
        try:
            for index in range(tenants):
                await server.handle(record_body(f"t{index}", index, 1))
            return response_of(
                await server.handle(body_of(protocol.Stats()))
            ).document
        finally:
            await server.stop()

    document = asyncio.run(scenario())
    assert document["tenants"] == tenants
    assert ("per_tenant" in document) is detailed
    if detailed:
        assert len(document["per_tenant"]) == tenants


# ----------------------------------------------------------------------
# Backpressure: the backlog marks and the write-side mark
# ----------------------------------------------------------------------

class _Transport(asyncio.Transport):
    """Records whether a connection lets its transport read."""

    def __init__(self) -> None:
        super().__init__()
        self.reading = True

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def write(self, data) -> None:
        pass

    def get_write_buffer_size(self) -> int:
        return 0

    def get_write_buffer_limits(self) -> tuple[int, int]:
        return 16 * 1024, 64 * 1024


class _Parking:
    """A connection over a fake transport whose parked frames are served
    one at a time, each when the test releases it."""

    def __init__(self) -> None:
        server = CardinalityServer(make_config())
        server._loop = asyncio.get_running_loop()
        self.release = asyncio.Semaphore(0)

        async def held(body):
            await self.release.acquire()
            return protocol.encode_response(protocol.RecordOk(0))

        server.handle = held
        self.transport = _Transport()
        self.connection = _Connection(server)
        self.connection.connection_made(self.transport)

    def deliver(self, body: bytes) -> None:
        """Receive one frame in place, as the event loop would."""
        stream = protocol.encode_frame(body)
        offset = 0
        while offset < len(stream):
            buffer = self.connection.get_buffer(-1)
            size = min(len(buffer), len(stream) - offset)
            buffer[:size] = stream[offset:offset + size]
            offset += size
            self.connection.buffer_updated(size)

    @property
    def parked(self) -> int:
        return len(self.connection._backlog)

    async def start(self) -> None:
        """Park nothing yet: a RECORD starts the worker, which takes it."""
        self.deliver(record_body("t", 0, 1))
        await self.serve_one(expect=0)

    async def serve_one(self, expect: int) -> None:
        """Let the worker take parked frames until ``expect`` remain."""
        for _ in range(100):
            if self.parked == expect:
                return
            await asyncio.sleep(0)
        pytest.fail(f"{self.parked} frames parked, expected {expect}")

    async def drain(self) -> None:
        """Finish every frame and close the connection."""
        while self.connection._worker is not None:
            self.release.release()
            await asyncio.sleep(0)
        self.connection.connection_lost(None)


def test_backlog_frame_marks_at_their_boundaries():
    """Reading pauses just past BACKLOG_HIGH parked frames and resumes
    just below BACKLOG_LOW."""

    async def scenario():
        lane = _Parking()
        await lane.start()
        estimate = body_of(protocol.Estimate("t"))
        for parked in range(1, BACKLOG_HIGH + 2):
            lane.deliver(estimate)
            assert lane.parked == parked
            assert lane.transport.reading is (parked <= BACKLOG_HIGH)
        for parked in range(BACKLOG_HIGH, -1, -1):
            lane.release.release()
            await lane.serve_one(expect=parked)
            assert lane.transport.reading is (parked < BACKLOG_LOW)
        await lane.drain()

    asyncio.run(scenario())


def test_backlog_byte_marks_at_their_boundaries():
    """Reading pauses just past BACKLOG_HIGH_BYTES parked body bytes and
    resumes just below BACKLOG_LOW_BYTES, with few frames parked."""
    bodies = [
        bytes(BACKLOG_HIGH_BYTES - BACKLOG_LOW_BYTES + 1),
        b"\x03",
        bytes(BACKLOG_LOW_BYTES - 2),
    ]
    assert sum(map(len, bodies)) == BACKLOG_HIGH_BYTES

    async def scenario():
        lane = _Parking()
        await lane.start()
        for body in bodies:
            lane.deliver(body)
        assert lane.connection._parked == BACKLOG_HIGH_BYTES
        assert lane.transport.reading
        lane.deliver(b"\x03")  # one byte past the high mark
        assert not lane.transport.reading
        lane.release.release()
        await lane.serve_one(expect=3)
        assert lane.connection._parked == BACKLOG_LOW_BYTES
        assert not lane.transport.reading
        lane.release.release()
        await lane.serve_one(expect=2)
        assert lane.connection._parked == BACKLOG_LOW_BYTES - 1
        assert lane.transport.reading
        await lane.drain()

    asyncio.run(scenario())


def test_one_frame_past_the_high_byte_mark_pauses_reading():
    """A single parked frame larger than BACKLOG_HIGH_BYTES pauses
    reading on its own; reading resumes once it is taken."""

    async def scenario():
        lane = _Parking()
        await lane.start()
        lane.deliver(bytes(BACKLOG_HIGH_BYTES + 1))
        assert lane.parked == 1 and not lane.transport.reading
        lane.release.release()
        await lane.serve_one(expect=0)
        assert lane.transport.reading
        await lane.drain()

    asyncio.run(scenario())


def test_reading_resumes_only_when_no_mark_holds():
    """Pending writes, parked frames and parked bytes each keep reading
    paused: it resumes only once none of them holds."""

    async def scenario():
        lane = _Parking()
        await lane.start()
        lane.connection.pause_writing()
        assert not lane.transport.reading
        for _ in range(BACKLOG_HIGH + 1):
            lane.deliver(body_of(protocol.Estimate("t")))
        lane.connection.resume_writing()  # the frame mark still holds
        assert not lane.transport.reading
        for parked in range(BACKLOG_HIGH, -1, -1):
            lane.release.release()
            await lane.serve_one(expect=parked)
        # Nothing is parked; writes back up while the last frame is
        # served, and stay pending after the worker has finished.
        lane.connection.pause_writing()
        lane.release.release()
        while lane.connection._worker is not None:
            await asyncio.sleep(0)
        assert not lane.transport.reading  # writes are still pending
        lane.connection.resume_writing()
        assert lane.transport.reading
        await lane.drain()

    asyncio.run(scenario())


def test_backlog_waits_for_the_write_buffer_to_drain():
    """While the write buffer is above its mark, the backlog task takes
    no frame, so it writes no reply; it goes on once writing resumes."""

    async def scenario():
        lane = _Parking()
        await lane.start()
        for _ in range(3):
            lane.deliver(body_of(protocol.Estimate("t")))
        lane.connection.pause_writing()
        lane.release.release()  # the RECORD is answered; then it waits
        for _ in range(20):
            await asyncio.sleep(0)
        assert lane.parked == 3
        lane.connection.resume_writing()
        await lane.serve_one(expect=2)
        await lane.drain()

    asyncio.run(scenario())


async def _client_that_does_not_read(server: CardinalityServer, host, port):
    """Connect a client whose replies back up into the server's write
    buffer: small kernel buffers on their way, so the buffer fills
    within a few bursts. Returns the client's reader and writer and the
    server's side of the connection."""
    client = socket.socket()
    client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    client.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 65536)
    client.setblocking(False)
    await asyncio.get_running_loop().sock_connect(client, (host, port))
    reader, writer = await asyncio.open_connection(sock=client)
    while not server._connections:
        await asyncio.sleep(0)
    (connection,) = server._connections
    connection.transport.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
    )
    return reader, writer, connection


def test_client_that_never_reads_cannot_grow_the_write_buffer():
    """A client pipelines ESTIMATEs and never reads the replies. The
    server stops reading once its write buffer passes the transport's
    high-water mark, and stops answering before its replies would pass
    it, so the buffer holds at most that mark plus one reply."""
    request = protocol.encode_request(protocol.Estimate("t"))
    reply = protocol.encode_response(protocol.EstimateOk(0.0))
    burst = request * (protocol.SCRATCH_BYTES // len(request))

    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)
        try:
            __, writer, connection = await _client_that_does_not_read(
                server, host, port
            )
            transport = connection.transport
            for _ in range(16):  # 1 MiB of requests at most
                writer.write(burst)
                try:
                    await asyncio.wait_for(writer.drain(), 0.5)
                except asyncio.TimeoutError:
                    break  # the server stopped reading
            buffered = transport.get_write_buffer_size()
            high = transport.get_write_buffer_limits()[1]
            reading = transport.is_reading()
            writer.transport.abort()
            return buffered, high, reading
        finally:
            await server.stop()

    buffered, high, reading = asyncio.run(scenario())
    assert not reading
    assert buffered <= high + len(reply), (buffered, high, len(reply))


#: STATS requests in one burst: a few KiB, one read, whose 14 KiB
#: documents would fill the write buffer's mark many times over. (Each
#: 256-tenant document takes about 0.8 ms to build on a 2-vCPU host,
#: so a full 64 KiB read of them would cost the test 10 s.)
STATS_BURST = 800


@pytest.mark.parametrize("behind_record", [False, True])
def test_stats_burst_to_a_client_that_does_not_read(behind_record):
    """Pipelined STATS to a server with 256 tenants, alone or parked
    behind a RECORD, from a client that does not read yet. The write
    buffer never holds more than its high-water mark plus one reply;
    once the client reads, every reply arrives, in order."""
    head = protocol.encode_frame(record_body("t0", 0, 8))
    burst = (
        (head if behind_record else b"")
        + protocol.encode_request(protocol.Stats()) * STATS_BURST
        + protocol.encode_request(protocol.Estimate("t0"))
    )
    expected = (
        ([protocol.RECORD_OK] if behind_record else [])
        + [protocol.STATS_OK] * STATS_BURST
        + [protocol.ESTIMATE_OK]
    )

    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)
        try:
            for index in range(STATS_TENANT_DETAIL_LIMIT):
                await server.handle(record_body(f"t{index}", index, 1))
            reader, writer, connection = await _client_that_does_not_read(
                server, host, port
            )
            transport = connection.transport
            peak = 0
            write = transport.write

            def watched(data):
                nonlocal peak
                write(data)
                peak = max(peak, transport.get_write_buffer_size())

            transport.write = watched
            writer.write(burst)
            high = transport.get_write_buffer_limits()[1]
            for _ in range(500):  # until the replies back up
                if peak > high:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.1)  # room to overshoot, were it allowed
            backed_up = peak
            decoder = protocol.FrameDecoder()
            verbs, largest, last = [], 0, b""
            while len(verbs) < len(expected):
                chunk = await asyncio.wait_for(reader.read(1 << 20), 30)
                assert chunk, "server closed the connection"
                for body in decoder.feed(chunk):
                    verbs.append(body[0])
                    largest = max(largest, 4 + len(body))
                    last = body
            writer.close()
            return backed_up, peak, high, largest, verbs, last
        finally:
            await server.stop()

    backed_up, peak, high, largest, verbs, last = asyncio.run(scenario())
    assert len(verbs) == len(expected) and verbs == expected
    assert largest > 10_000  # a 256-tenant document
    assert 0 < backed_up <= peak <= high + largest, (
        backed_up, peak, high, largest
    )
    assert protocol.decode_response(last).estimate > 0


# ----------------------------------------------------------------------
# Fault containment on both serving paths
# ----------------------------------------------------------------------

def test_unexpected_backlog_failure_answers_internal_in_order():
    """An uncaught handler error must not strand the drain task.

    Regression: an exception outside the anticipated types killed the
    backlog worker silently — later frames were never answered while
    new fast verbs jumped the queue, desynchronizing pipelined clients.
    """

    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)

        def boom(tenant):
            raise ZeroDivisionError("synthetic pipeline failure")

        server._pipeline = boom
        try:
            reader, writer = await asyncio.open_connection(host, port)
            # One pipelined burst: the RECORD parks the connection in
            # backlog mode; every frame must still be answered, in order.
            writer.write(
                protocol.encode_request(
                    protocol.Record("t", np.arange(8, dtype=np.uint64))
                )
            )
            writer.write(protocol.encode_request(protocol.Estimate("t")))
            writer.write(protocol.encode_request(protocol.Stats()))
            await writer.drain()
            decoder = protocol.FrameDecoder()
            responses = []
            while len(responses) < 3:
                chunk = await reader.read(65536)
                assert chunk, "server closed a recoverable connection"
                responses.extend(
                    protocol.decode_response(body)
                    for body in decoder.feed(chunk)
                )
            writer.close()
            return responses
        finally:
            await server.stop()

    first, second, third = asyncio.run(scenario())
    assert isinstance(first, protocol.Error)
    assert first.code == protocol.E_INTERNAL
    assert isinstance(second, protocol.EstimateOk)
    assert isinstance(third, protocol.StatsOk)


def test_estimate_failure_is_error_frame_not_disconnect():
    """The inline fast path answers E_INTERNAL instead of tearing the
    connection down when a concurrent-read anomaly raises."""

    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)

        def torn_read(tenant):
            raise ValueError("math domain error")

        server.registry.estimate = torn_read
        try:
            async with await ServeClient.connect(host, port) as client:
                with pytest.raises(ServeError) as caught:
                    await client.estimate("t")
                # Same connection keeps serving after the error frame.
                stats = await client.stats()
            return caught.value, stats
        finally:
            await server.stop()

    error, stats = asyncio.run(scenario())
    assert error.code == protocol.E_INTERNAL
    assert stats["tenants"] == 0


def test_record_ack_reports_pipeline_accepted_count(monkeypatch):
    """RECORD acknowledges what the pipeline accepted, not frame size."""
    monkeypatch.setattr(IngestPipeline, "submit", lambda self, items: 7)

    async def scenario():
        server = CardinalityServer(make_config())
        host, port = await start_server(server)
        try:
            async with await ServeClient.connect(host, port) as client:
                return await client.record(
                    "t", np.arange(64, dtype=np.uint64)
                )
        finally:
            await server.stop()

    assert asyncio.run(scenario()) == 7


@pytest.mark.parametrize("shards", [1, 4])
def test_estimate_reads_its_own_writes(shards):
    """An acked RECORD is applied: the next ESTIMATE is exactly the
    oracle's, for RECORDs of one key up to several chunks."""
    config = make_config(shards=shards)
    rng = np.random.default_rng(shards)
    batches = [
        (f"t{index % 3}", rng.integers(0, 1 << 40, size=size, dtype=np.uint64))
        for index, size in enumerate((1, 100, 5_000, 20_000, 3_000, 9_000))
    ]

    async def scenario():
        server = CardinalityServer(config)
        host, port = await start_server(server)
        try:
            async with await ServeClient.connect(host, port) as client:
                served = []
                for tenant, keys in batches:
                    assert await client.record(tenant, keys) == keys.size
                    served.append(await client.estimate(tenant))
                return served
        finally:
            await server.stop()

    served = asyncio.run(scenario())
    oracle = TenantRegistry(config)
    for (tenant, keys), value in zip(batches, served):
        oracle.record_many(tenant, keys)
        assert value == oracle.estimate(tenant)


def test_tenants_cost_no_threads():
    """64 tenants at K=4 add at most the default executor's threads."""
    executor_size = min(32, (os.cpu_count() or 1) + 4)

    async def scenario():
        server = CardinalityServer(make_config(shards=4))
        host, port = await start_server(server)
        try:
            before = threading.active_count()
            async with await ServeClient.connect(host, port) as client:
                for index in range(64):
                    await client.record(
                        f"tenant-{index}", np.arange(256, dtype=np.uint64)
                    )
                assert (await client.stats())["tenants"] == 64
            return threading.active_count() - before
        finally:
            await server.stop()

    assert asyncio.run(scenario()) <= executor_size


# ----------------------------------------------------------------------
# Stop / resume
# ----------------------------------------------------------------------

def test_graceful_stop_then_resume_is_bit_exact(tmp_path):
    keys = {
        "alpha": np.arange(0, 30_000, dtype=np.uint64),
        "beta": np.arange(10**9, 10**9 + 50_000, dtype=np.uint64),
    }

    async def first_run():
        server = CardinalityServer(
            make_config(), checkpoint_manager=manager(tmp_path)
        )
        host, port = await start_server(server)
        async with await ServeClient.connect(host, port) as client:
            for tenant, batch in keys.items():
                await client.record(tenant, batch)
        final = await server.stop()
        assert final is not None and final.meta["final"]
        return server.registry.to_bytes()

    async def resumed_run():
        server = CardinalityServer(
            make_config(),
            checkpoint_manager=manager(tmp_path),
            resume=True,
        )
        host, port = await start_server(server)
        try:
            assert server.last_generation >= 1
            async with await ServeClient.connect(host, port) as client:
                estimates = {
                    tenant: await client.estimate(tenant) for tenant in keys
                }
        finally:
            await server.stop()
        return server.registry.to_bytes(), estimates

    image_before = asyncio.run(first_run())
    image_after, estimates = asyncio.run(resumed_run())
    assert image_after == image_before  # bit-exact registry round-trip

    # And the resumed estimates equal a local oracle built identically.
    oracle = TenantRegistry(make_config())
    for tenant, batch in keys.items():
        oracle.record_many(tenant, batch)
    for tenant in keys:
        assert estimates[tenant] == oracle.estimate(tenant)


def test_resume_from_empty_directory_starts_fresh(tmp_path):
    async def scenario():
        server = CardinalityServer(
            make_config(),
            checkpoint_manager=manager(tmp_path),
            resume=True,
        )
        await start_server(server)
        try:
            return server.last_generation, len(server.registry)
        finally:
            await server.stop()

    generation, tenants = asyncio.run(scenario())
    assert generation == 0 and tenants == 0


def test_resume_with_mismatched_config_is_refused(tmp_path):
    """Resume must not silently ignore the server's sizing flags.

    Regression: a restored registry replaced ``server.registry``
    without comparing configs, so ``--memory-bits`` etc. appeared to
    take effect while the checkpointed sizing actually governed.
    """

    async def first_run():
        server = CardinalityServer(
            make_config(), checkpoint_manager=manager(tmp_path)
        )
        await server.start("127.0.0.1", 0)
        final = await server.stop()
        assert final is not None

    asyncio.run(first_run())

    async def mismatched_resume():
        server = CardinalityServer(
            make_config(memory_bits=9000),
            checkpoint_manager=manager(tmp_path),
            resume=True,
        )
        with pytest.raises(RecoveryError, match="does not match"):
            await server.start("127.0.0.1", 0)

    asyncio.run(mismatched_resume())


# ----------------------------------------------------------------------
# Registry restore: every pool must be one the config would have built
# ----------------------------------------------------------------------

def test_registry_restore_rejects_pools_the_config_would_not_build():
    config = make_config()  # 1-shard SMB tenants
    for foreign in (
        ShardPool.of("HLL", 4096, 4, seed=3),  # another shape entirely
        ShardPool.of(  # another class, same shard count and seeds
            "HLL", MEMORY_BITS, 1, design_cardinality=DESIGN,
            seed=config.tenant_seed("t"),
        ),
        config.build_pool("u"),  # another tenant's seeds
    ):
        registry = TenantRegistry(config)
        registry.pools["t"] = foreign
        with pytest.raises(ValueError, match="does not match the config"):
            TenantRegistry.from_bytes(registry.to_bytes())


def test_registry_restore_rejects_more_tenants_than_the_limit():
    config = make_config(max_tenants=1)
    registry = TenantRegistry(config)
    for name in ("a", "b"):
        registry.pools[name] = config.build_pool(name)
    with pytest.raises(ValueError, match="exceed max_tenants 1"):
        TenantRegistry.from_bytes(registry.to_bytes())
