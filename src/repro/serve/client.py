"""Asyncio client of the cardinality service.

:class:`ServeClient` is a thin, pipelining-capable wrapper over one
connection: every verb has an ``await``-able method, and
:meth:`ServeClient.estimate_many` pipelines a whole batch of ESTIMATEs
in one write (the server answers in FIFO order, so no request tags are
needed). Protocol-level failures surface as :class:`ServeError`
carrying the server's error code.

:class:`RetryingClient` layers transparent reconnection on top, driven
by the *same* :class:`~repro.engine.recovery.RetryPolicy` the
checkpoint layer uses — deterministic backoff, bounded attempts — so a
client riding through a server crash-and-restart (the kill-and-resume
test) recovers without bespoke retry code. Retried RECORDs are
**at-least-once**: if the connection dies after the server applied the
batch but before the acknowledgment arrived, the retry re-records it.
For cardinality estimation this is benign by construction — estimators
are duplicate-insensitive, so re-recording the same keys cannot inflate
the estimate — which is why the service can offer so simple a retry
contract. (The *state* may differ bit-wise from a never-crashed run;
the *answers* do not move beyond the paper's error bound.)
"""

from __future__ import annotations

import asyncio
from typing import Sequence

import numpy as np

from repro.engine.recovery import RetryPolicy
from repro.serve import protocol
from repro.serve.protocol import (
    Checkpoint,
    CheckpointOk,
    Error,
    Estimate,
    EstimateOk,
    Export,
    ExportOk,
    FrameDecoder,
    MergeIn,
    MergeInOk,
    Record,
    RecordOk,
    Request,
    Response,
    Stats,
    StatsOk,
    encode_request,
)

__all__ = ["RetryingClient", "ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """The server answered with an ERROR frame."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"server error {code}: {message}")
        self.code = code
        #: True for errors worth retrying on a fresh connection
        #: (overload, drain-in-progress); honored by
        #: :class:`~repro.engine.recovery.RetryPolicy.is_transient`.
        self.transient = code in (
            protocol.E_OVERLOADED,
            protocol.E_SHUTTING_DOWN,
        )


class ServeClient:
    """One connection to a cardinality server."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder(max_frame)

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
    ) -> "ServeClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, max_frame=max_frame)

    async def close(self) -> None:
        """Close the connection, tolerating a peer that is already gone."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # peer already gone; the socket is closed either way

    # ------------------------------------------------------------------
    # Frame plumbing
    # ------------------------------------------------------------------
    async def _read_responses(self, count: int) -> list[Response]:
        responses: list[Response] = []
        while len(responses) < count:
            chunk = await self._reader.read(65536)
            if not chunk:
                self._decoder.check_eof()
                raise ConnectionResetError(
                    "server closed the connection mid-response"
                )
            for body in self._decoder.feed(chunk):
                responses.append(protocol.decode_response(body))
        if len(responses) > count:
            raise RuntimeError("unexpected extra response frames")
        return responses

    async def request(self, request: Request) -> Response:
        """Send one request and await its response (FIFO order)."""
        self._writer.write(encode_request(request))
        await self._writer.drain()
        (response,) = await self._read_responses(1)
        return response

    @staticmethod
    def _expect(response: Response, expected: type) -> Response:
        if isinstance(response, Error):
            raise ServeError(response.code, response.message)
        if not isinstance(response, expected):
            raise RuntimeError(
                f"expected {expected.__name__}, got {response!r}"
            )
        return response

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    async def record(self, tenant: str, keys) -> int:
        """Record a batch of keys; returns the accepted count."""
        batch = np.ascontiguousarray(keys, dtype=np.uint64)
        response = self._expect(
            await self.request(Record(tenant, batch)), RecordOk
        )
        return int(response.accepted)  # type: ignore[union-attr]

    async def estimate(self, tenant: str) -> float:
        """The tenant's current O(1) estimate."""
        response = self._expect(
            await self.request(Estimate(tenant)), EstimateOk
        )
        return float(response.estimate)  # type: ignore[union-attr]

    async def estimate_many(self, tenants: Sequence[str]) -> list[float]:
        """Pipeline one ESTIMATE per tenant in a single write."""
        if not tenants:
            return []
        frames = {t: encode_request(Estimate(t)) for t in dict.fromkeys(tenants)}
        self._writer.write(b"".join(map(frames.__getitem__, tenants)))
        await self._writer.drain()
        responses = await self._read_responses(len(tenants))
        return [
            float(self._expect(r, EstimateOk).estimate)  # type: ignore[union-attr]
            for r in responses
        ]

    async def stats(self) -> dict:
        """The server's STATS document."""
        response = self._expect(await self.request(Stats()), StatsOk)
        return dict(response.document)  # type: ignore[union-attr]

    async def checkpoint(self) -> int:
        """Drain and persist one generation; returns its number."""
        response = self._expect(
            await self.request(Checkpoint()), CheckpointOk
        )
        return int(response.generation)  # type: ignore[union-attr]

    async def export(self, tenant: str) -> bytes:
        """The tenant's state as a compact :mod:`repro.wire` frame.

        The server drains the tenant to a safe point first, so the frame
        is a consistent cut; an unknown tenant exports a deterministic
        empty pool (the merge identity).
        """
        response = self._expect(
            await self.request(Export(tenant)), ExportOk
        )
        return bytes(response.frame)  # type: ignore[union-attr]

    async def merge_in(self, tenant: str, frame: bytes) -> float:
        """Merge a wire frame into the tenant; returns the new estimate.

        An incompatible or undecodable frame raises :class:`ServeError`
        (E_INCOMPATIBLE / E_BAD_PAYLOAD) without dropping the
        connection.
        """
        response = self._expect(
            await self.request(MergeIn(tenant, frame)), MergeInOk
        )
        return float(response.estimate)  # type: ignore[union-attr]

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()


#: Connection-level failures that justify a reconnect attempt.
_RECONNECTABLE = (
    ConnectionError,
    asyncio.IncompleteReadError,
    OSError,
    TimeoutError,
)


class RetryingClient:
    """A :class:`ServeClient` that reconnects through server restarts.

    Every verb retries under the given
    :class:`~repro.engine.recovery.RetryPolicy`: connection failures
    (including the initial connect) and transient server errors
    (OVERLOADED, SHUTTING_DOWN) trigger a reconnect-and-retry after the
    policy's deterministic backoff; the final failure is re-raised
    once attempts are exhausted. See the module docstring for the
    at-least-once RECORD semantics.
    """

    def __init__(
        self,
        host: str,
        port: int,
        policy: RetryPolicy | None = None,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
    ) -> None:
        self.host = host
        self.port = port
        self.policy = policy if policy is not None else RetryPolicy()
        self.max_frame = max_frame
        self._client: ServeClient | None = None

    async def _connected(self) -> ServeClient:
        if self._client is None:
            self._client = await ServeClient.connect(
                self.host, self.port, max_frame=self.max_frame
            )
        return self._client

    async def _disconnect(self) -> None:
        if self._client is not None:
            client, self._client = self._client, None
            try:
                await client.close()
            except _RECONNECTABLE:
                pass

    async def close(self) -> None:
        """Drop the current connection (a later verb reconnects)."""
        await self._disconnect()

    async def _call(self, method: str, *args):
        """Run one verb with reconnect-and-retry under the policy."""
        policy = self.policy
        attempt = 1
        while True:
            try:
                client = await self._connected()
                return await getattr(client, method)(*args)
            except _RECONNECTABLE as error:
                await self._disconnect()
                if attempt >= policy.max_attempts:
                    raise
                await asyncio.sleep(policy.delay(attempt - 1))
            except ServeError as error:
                if (
                    attempt >= policy.max_attempts
                    or not policy.is_transient(error)
                ):
                    raise
                await self._disconnect()
                await asyncio.sleep(policy.delay(attempt - 1))
            attempt += 1

    async def record(self, tenant: str, keys) -> int:
        """At-least-once RECORD (duplicate-insensitive, see module doc)."""
        return await self._call("record", tenant, keys)

    async def estimate(self, tenant: str) -> float:
        """Retrying :meth:`ServeClient.estimate`."""
        return await self._call("estimate", tenant)

    async def estimate_many(self, tenants: Sequence[str]) -> list[float]:
        """Retrying :meth:`ServeClient.estimate_many` (whole batch)."""
        return await self._call("estimate_many", tenants)

    async def stats(self) -> dict:
        """Retrying :meth:`ServeClient.stats`."""
        return await self._call("stats")

    async def checkpoint(self) -> int:
        """Retrying :meth:`ServeClient.checkpoint`."""
        return await self._call("checkpoint")

    async def export(self, tenant: str) -> bytes:
        """Retrying :meth:`ServeClient.export`."""
        return await self._call("export", tenant)

    async def merge_in(self, tenant: str, frame: bytes) -> float:
        """Retrying :meth:`ServeClient.merge_in` (idempotent: merges
        are unions, so a retried MERGE_IN cannot inflate the estimate)."""
        return await self._call("merge_in", tenant, frame)

    async def __aenter__(self) -> "RetryingClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()
