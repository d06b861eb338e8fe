"""Binary length-prefixed frame protocol of the cardinality service.

One frame per request/response, built to be cheap to parse in a hot
``asyncio`` loop and impossible to misparse: every frame is a 4-byte
little-endian *body length* followed by exactly that many body bytes,
the first of which names the verb. A connection is a strict FIFO of
frames — responses come back in request order, so clients may pipeline
arbitrarily many requests without tagging them.

Frame layout (all integers little-endian)::

    offset  size  field
    0       4     u32 body length L (1 <= L <= max_frame)
    4       1     u8 verb
    5       L-1   verb-specific payload

Request payloads:

    RECORD (0x01)      u16 tenant length | tenant utf-8
                       | u32 key count | count x u64 keys
    ESTIMATE (0x02)    u16 tenant length | tenant utf-8
    STATS (0x03)       (empty)
    CHECKPOINT (0x04)  (empty)
    EXPORT (0x05)      u16 tenant length | tenant utf-8
    MERGE_IN (0x06)    u16 tenant length | tenant utf-8
                       | u32 frame length | compact sketch wire frame

Response payloads:

    RECORD_OK (0x81)      u64 accepted key count
    ESTIMATE_OK (0x82)    f64 cardinality estimate
    STATS_OK (0x83)       utf-8 JSON document
    CHECKPOINT_OK (0x84)  u64 checkpoint generation number
    EXPORT_OK (0x85)      u32 frame length | compact sketch wire frame
    MERGE_IN_OK (0x86)    f64 post-merge cardinality estimate
    ERROR (0xFF)          u16 error code | utf-8 message

EXPORT and MERGE_IN carry :mod:`repro.wire` compact sketch frames (the
tenant's whole shard pool in one self-describing frame), which is what
lets ``repro agg`` tree-reduce N serving nodes into one global
estimate. An incompatible MERGE_IN — wrong sketch class or diverging
sizing/seed parameters — answers a typed :data:`E_INCOMPATIBLE` error
frame and the connection survives.

Validation is **strict**, the same discipline as the checkpoint
container (:mod:`repro.engine.checkpoint`): a payload must be consumed
*exactly* — truncated fields and trailing bytes raise
:class:`ProtocolError` rather than decode into a silently-wrong
message. The error taxonomy distinguishes recoverable frames from
framing loss:

- a well-framed body that fails to decode (unknown verb, garbage
  payload) is answered with an :class:`Error` frame and the connection
  continues — the length prefix was valid, so the stream cannot
  desync;
- a violated *frame* invariant (zero or oversized length prefix) means
  the byte stream itself can no longer be trusted; the decoder raises
  and the server closes the connection after one final error frame.

The codec is dependency-light (``struct`` + NumPy for the key arrays)
and shared verbatim by the server and the client, so there is exactly
one encoding of every message in the codebase.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

__all__ = [
    "CHECKPOINT",
    "CHECKPOINT_OK",
    "DEFAULT_MAX_FRAME",
    "ESTIMATE",
    "ESTIMATE_OK",
    "EXPORT",
    "EXPORT_OK",
    "E_BAD_FRAME",
    "E_BAD_PAYLOAD",
    "E_INCOMPATIBLE",
    "E_INTERNAL",
    "E_OVERLOADED",
    "E_SHUTTING_DOWN",
    "E_UNKNOWN_VERB",
    "Checkpoint",
    "CheckpointOk",
    "Error",
    "Estimate",
    "EstimateOk",
    "Export",
    "ExportOk",
    "FrameDecoder",
    "MERGE_IN",
    "MERGE_IN_OK",
    "MergeIn",
    "MergeInOk",
    "ProtocolError",
    "RECORD",
    "RECORD_OK",
    "Record",
    "RecordOk",
    "Request",
    "Response",
    "STATS",
    "STATS_OK",
    "Stats",
    "StatsOk",
    "decode_request",
    "decode_response",
    "encode_error",
    "encode_frame",
    "encode_request",
    "encode_response",
]

#: Hard ceiling on one frame body. Large enough for a 1M-key RECORD
#: batch (8 MiB of keys) with headroom; small enough that a corrupted
#: length prefix cannot make the decoder buffer gigabytes.
DEFAULT_MAX_FRAME = 16 * 1024 * 1024

#: A frame whose length prefix and body fit in this many bytes is
#: received into a :class:`FrameDecoder`'s reusable scratch buffer and
#: copied out; a larger frame is received into a buffer of its own.
SCRATCH_BYTES = 64 * 1024

#: Longest tenant name in utf-8 bytes.
MAX_TENANT_BYTES = 255

# Request verbs.
RECORD = 0x01
ESTIMATE = 0x02
STATS = 0x03
CHECKPOINT = 0x04
EXPORT = 0x05
MERGE_IN = 0x06

# Response verbs (request verb | 0x80), plus the error frame.
RECORD_OK = 0x81
ESTIMATE_OK = 0x82
STATS_OK = 0x83
CHECKPOINT_OK = 0x84
EXPORT_OK = 0x85
MERGE_IN_OK = 0x86
ERROR = 0xFF

# Error codes carried by ERROR frames.
E_BAD_FRAME = 1  #: frame invariant violated (length prefix); fatal
E_UNKNOWN_VERB = 2  #: verb byte not in the catalog; connection survives
E_BAD_PAYLOAD = 3  #: well-framed body failed strict decoding
E_OVERLOADED = 4  #: backpressure rejected the request; retry later
E_SHUTTING_DOWN = 5  #: server is draining; no new mutations accepted
E_INTERNAL = 6  #: unexpected server-side failure
E_INCOMPATIBLE = 7  #: MERGE_IN sketch is not merge-compatible; connection survives

_LENGTH = struct.Struct("<I")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_ERROR_HEAD = struct.Struct("<H")


class ProtocolError(ValueError):
    """A frame or payload violated the protocol.

    ``code`` is the :data:`E_BAD_FRAME`-family error code the server
    should answer with; ``fatal`` is True when the *stream framing*
    itself is compromised and the connection must close (a payload
    error inside a well-framed body is not fatal — the next frame
    still starts at a known offset).
    """

    def __init__(self, code: int, message: str, fatal: bool = False) -> None:
        super().__init__(message)
        self.code = int(code)
        self.fatal = bool(fatal)


# ----------------------------------------------------------------------
# Message types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Record:
    """RECORD: ingest a batch of keys into one tenant's estimator."""

    tenant: str
    #: uint64, C-contiguous. A decoded RECORD's keys may be a read-only
    #: view of its request body (see :func:`decode_request`).
    keys: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class Estimate:
    """ESTIMATE: the tenant's current cardinality estimate (O(1))."""

    tenant: str


@dataclass(frozen=True)
class Stats:
    """STATS: server/tenant accounting plus a metrics snapshot."""


@dataclass(frozen=True)
class Checkpoint:
    """CHECKPOINT: drain to a safe point and persist one generation."""


@dataclass(frozen=True)
class Export:
    """EXPORT: the tenant's sketch as a compact wire frame."""

    tenant: str


@dataclass(frozen=True)
class MergeIn:
    """MERGE_IN: union a compact wire frame into the tenant's sketch."""

    tenant: str
    frame: bytes = field(repr=False)


@dataclass(frozen=True)
class RecordOk:
    """Acknowledges a RECORD: every key of the batch was applied."""

    accepted: int


@dataclass(frozen=True)
class EstimateOk:
    """Carries one cardinality estimate."""

    estimate: float


@dataclass(frozen=True)
class StatsOk:
    """Carries the STATS JSON document (already parsed)."""

    document: dict


@dataclass(frozen=True)
class CheckpointOk:
    """Acknowledges a CHECKPOINT with the generation number written."""

    generation: int


@dataclass(frozen=True)
class ExportOk:
    """Carries one tenant's sketch as a compact wire frame."""

    frame: bytes = field(repr=False)


@dataclass(frozen=True)
class MergeInOk:
    """Acknowledges a MERGE_IN with the post-merge estimate."""

    estimate: float


@dataclass(frozen=True)
class Error:
    """An error response; ``code`` is one of the ``E_*`` constants."""

    code: int
    message: str


Request = Union[Record, Estimate, Stats, Checkpoint, Export, MergeIn]
Response = Union[
    RecordOk, EstimateOk, StatsOk, CheckpointOk, ExportOk, MergeInOk, Error
]


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def encode_frame(body: bytes) -> bytes:
    """Wrap a body in its length prefix."""
    if not body:
        raise ProtocolError(E_BAD_FRAME, "frame body must be non-empty")
    return _LENGTH.pack(len(body)) + body


def _encode_tenant(tenant: str) -> bytes:
    raw = tenant.encode("utf-8")
    if not raw:
        raise ProtocolError(E_BAD_PAYLOAD, "tenant name must be non-empty")
    if len(raw) > MAX_TENANT_BYTES:
        raise ProtocolError(
            E_BAD_PAYLOAD,
            f"tenant name too long ({len(raw)} > {MAX_TENANT_BYTES} bytes)",
        )
    return _U16.pack(len(raw)) + raw


def encode_request(request: Request) -> bytes:
    """One full frame (length prefix included) for a request."""
    if isinstance(request, Record):
        keys = np.ascontiguousarray(request.keys, dtype=np.uint64)
        body = b"".join(
            (
                bytes([RECORD]),
                _encode_tenant(request.tenant),
                _U32.pack(keys.size),
                keys.tobytes(),
            )
        )
    elif isinstance(request, Estimate):
        body = bytes([ESTIMATE]) + _encode_tenant(request.tenant)
    elif isinstance(request, Export):
        body = bytes([EXPORT]) + _encode_tenant(request.tenant)
    elif isinstance(request, MergeIn):
        frame = bytes(request.frame)
        if not frame:
            raise ProtocolError(E_BAD_PAYLOAD, "MERGE_IN frame must be non-empty")
        body = b"".join(
            (
                bytes([MERGE_IN]),
                _encode_tenant(request.tenant),
                _U32.pack(len(frame)),
                frame,
            )
        )
    elif isinstance(request, Stats):
        body = bytes([STATS])
    elif isinstance(request, Checkpoint):
        body = bytes([CHECKPOINT])
    else:
        raise TypeError(f"not a request: {request!r}")
    return encode_frame(body)


def encode_response(response: Response) -> bytes:
    """One full frame (length prefix included) for a response."""
    if isinstance(response, RecordOk):
        body = bytes([RECORD_OK]) + _U64.pack(response.accepted)
    elif isinstance(response, EstimateOk):
        body = bytes([ESTIMATE_OK]) + _F64.pack(response.estimate)
    elif isinstance(response, StatsOk):
        import json

        body = bytes([STATS_OK]) + json.dumps(
            response.document, sort_keys=True
        ).encode("utf-8")
    elif isinstance(response, CheckpointOk):
        body = bytes([CHECKPOINT_OK]) + _U64.pack(response.generation)
    elif isinstance(response, ExportOk):
        frame = bytes(response.frame)
        if not frame:
            raise ProtocolError(E_BAD_PAYLOAD, "EXPORT_OK frame must be non-empty")
        body = bytes([EXPORT_OK]) + _U32.pack(len(frame)) + frame
    elif isinstance(response, MergeInOk):
        body = bytes([MERGE_IN_OK]) + _F64.pack(response.estimate)
    elif isinstance(response, Error):
        body = (
            bytes([ERROR])
            + _ERROR_HEAD.pack(response.code)
            + response.message.encode("utf-8")
        )
    else:
        raise TypeError(f"not a response: {response!r}")
    return encode_frame(body)


def encode_error(code: int, message: str) -> bytes:
    """Shorthand for ``encode_response(Error(code, message))``."""
    return encode_response(Error(code, message))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def _decode_tenant(payload: memoryview, offset: int) -> tuple[str, int]:
    """Decode one length-prefixed tenant name; returns (name, offset)."""
    if len(payload) < offset + _U16.size:
        raise ProtocolError(E_BAD_PAYLOAD, "truncated tenant length")
    (length,) = _U16.unpack_from(payload, offset)
    offset += _U16.size
    if length == 0:
        raise ProtocolError(E_BAD_PAYLOAD, "tenant name must be non-empty")
    if length > MAX_TENANT_BYTES:
        raise ProtocolError(
            E_BAD_PAYLOAD,
            f"tenant name too long ({length} > {MAX_TENANT_BYTES} bytes)",
        )
    raw = bytes(payload[offset:offset + length])
    if len(raw) != length:
        raise ProtocolError(E_BAD_PAYLOAD, "truncated tenant name")
    try:
        tenant = raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ProtocolError(
            E_BAD_PAYLOAD, "tenant name is not valid utf-8"
        ) from error
    return tenant, offset + length


def _exactly_consumed(payload: memoryview, offset: int) -> None:
    if offset != len(payload):
        raise ProtocolError(
            E_BAD_PAYLOAD,
            f"trailing bytes after payload ({len(payload) - offset})",
        )


def decode_request(body: bytes | memoryview) -> Request:
    """Strictly decode one request body (no length prefix).

    Raises :class:`ProtocolError` (non-fatal) for an unknown verb or a
    payload that is truncated, malformed, or carries trailing bytes.
    The ``keys`` array of a decoded :class:`Record` is a read-only view
    of ``body`` when ``body`` is read-only and the keys start 8-byte
    aligned (as :class:`FrameDecoder` places a large RECORD); otherwise
    it is a copy that owns its memory. Either way callers may hand it to
    another thread, even when a writable ``body`` aliases a reusable
    receive buffer.
    """
    payload = memoryview(body)
    if not len(payload):
        raise ProtocolError(E_BAD_PAYLOAD, "empty frame body")
    verb = payload[0]
    if verb == ESTIMATE:
        tenant, offset = _decode_tenant(payload, 1)
        _exactly_consumed(payload, offset)
        return Estimate(tenant)
    if verb == RECORD:
        tenant, offset = _decode_tenant(payload, 1)
        if len(payload) < offset + _U32.size:
            raise ProtocolError(E_BAD_PAYLOAD, "truncated key count")
        (count,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        expected = count * 8
        if len(payload) - offset != expected:
            raise ProtocolError(
                E_BAD_PAYLOAD,
                f"key payload is {len(payload) - offset} bytes, "
                f"expected {expected} for {count} keys",
            )
        keys = np.frombuffer(payload, dtype="<u8", count=count, offset=offset)
        if not (payload.readonly and keys.flags.aligned):
            # A writable body may be a reusable receive buffer, and an
            # unaligned view hashes slower than a copy: copy so the
            # batch owns its memory and can cross threads safely.
            keys = keys.astype(np.uint64, copy=True)
        return Record(tenant, keys)
    if verb == STATS:
        _exactly_consumed(payload, 1)
        return Stats()
    if verb == CHECKPOINT:
        _exactly_consumed(payload, 1)
        return Checkpoint()
    if verb == EXPORT:
        tenant, offset = _decode_tenant(payload, 1)
        _exactly_consumed(payload, offset)
        return Export(tenant)
    if verb == MERGE_IN:
        tenant, offset = _decode_tenant(payload, 1)
        if len(payload) < offset + _U32.size:
            raise ProtocolError(E_BAD_PAYLOAD, "truncated MERGE_IN frame length")
        (length,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        if length == 0:
            raise ProtocolError(E_BAD_PAYLOAD, "MERGE_IN frame must be non-empty")
        frame = bytes(payload[offset:offset + length])
        if len(frame) != length:
            raise ProtocolError(E_BAD_PAYLOAD, "truncated MERGE_IN frame")
        _exactly_consumed(payload, offset + length)
        return MergeIn(tenant, frame)
    raise ProtocolError(E_UNKNOWN_VERB, f"unknown request verb 0x{verb:02x}")


def decode_response(body: bytes | memoryview) -> Response:
    """Strictly decode one response body (no length prefix)."""
    payload = memoryview(body)
    if not len(payload):
        raise ProtocolError(E_BAD_PAYLOAD, "empty frame body")
    verb = payload[0]
    if verb == ESTIMATE_OK:
        if len(payload) != 1 + _F64.size:
            raise ProtocolError(E_BAD_PAYLOAD, "malformed ESTIMATE_OK")
        return EstimateOk(_F64.unpack_from(payload, 1)[0])
    if verb == RECORD_OK:
        if len(payload) != 1 + _U64.size:
            raise ProtocolError(E_BAD_PAYLOAD, "malformed RECORD_OK")
        return RecordOk(_U64.unpack_from(payload, 1)[0])
    if verb == CHECKPOINT_OK:
        if len(payload) != 1 + _U64.size:
            raise ProtocolError(E_BAD_PAYLOAD, "malformed CHECKPOINT_OK")
        return CheckpointOk(_U64.unpack_from(payload, 1)[0])
    if verb == MERGE_IN_OK:
        if len(payload) != 1 + _F64.size:
            raise ProtocolError(E_BAD_PAYLOAD, "malformed MERGE_IN_OK")
        return MergeInOk(_F64.unpack_from(payload, 1)[0])
    if verb == EXPORT_OK:
        if len(payload) < 1 + _U32.size:
            raise ProtocolError(E_BAD_PAYLOAD, "truncated EXPORT_OK")
        (length,) = _U32.unpack_from(payload, 1)
        if length == 0:
            raise ProtocolError(E_BAD_PAYLOAD, "EXPORT_OK frame must be non-empty")
        frame = bytes(payload[1 + _U32.size:1 + _U32.size + length])
        if len(frame) != length:
            raise ProtocolError(E_BAD_PAYLOAD, "truncated EXPORT_OK frame")
        _exactly_consumed(payload, 1 + _U32.size + length)
        return ExportOk(frame)
    if verb == STATS_OK:
        import json

        try:
            document = json.loads(bytes(payload[1:]).decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise ProtocolError(
                E_BAD_PAYLOAD, "STATS_OK payload is not JSON"
            ) from error
        if not isinstance(document, dict):
            raise ProtocolError(E_BAD_PAYLOAD, "STATS_OK JSON is not an object")
        return StatsOk(document)
    if verb == ERROR:
        if len(payload) < 1 + _ERROR_HEAD.size:
            raise ProtocolError(E_BAD_PAYLOAD, "truncated ERROR frame")
        (code,) = _ERROR_HEAD.unpack_from(payload, 1)
        try:
            message = bytes(payload[1 + _ERROR_HEAD.size:]).decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(
                E_BAD_PAYLOAD, "ERROR message is not valid utf-8"
            ) from error
        return Error(code, message)
    raise ProtocolError(E_UNKNOWN_VERB, f"unknown response verb 0x{verb:02x}")


class FrameDecoder:
    """Incremental frame splitter over a byte stream.

    Bytes are received in place: :meth:`get_buffer` returns where the
    next bytes go, and :meth:`received` takes the count written there
    and yields every frame *body* those bytes complete, so an
    :class:`asyncio.BufferedProtocol` receives straight into it.
    :meth:`feed` copies a chunk in through the same two calls.

    A frame whose length prefix and body fit in :data:`SCRATCH_BYTES` is
    received into a reusable scratch buffer and yielded as ``bytes``. A
    larger frame gets a buffer of its own once its first three body
    bytes are in: NumPy memory, committed only as bytes arrive, placed
    so that a RECORD's keys start 8-byte aligned. It is yielded as a
    read-only ``memoryview`` that the decoder keeps no reference to, so
    :func:`decode_request` can view its keys without a copy.

    A zero or oversized length prefix raises a **fatal**
    :class:`ProtocolError` before anything is allocated: past that point
    the stream offset of the next frame is unknowable, so the caller
    must close the connection. Truncation is not an error while the
    stream is live (more bytes may arrive); at EOF, call
    :meth:`check_eof` to reject a partial trailing frame.
    """

    __slots__ = ("_max_frame", "_scratch", "_start", "_end", "_frame", "_filled")

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        if max_frame < 1:
            raise ValueError(f"max_frame must be >= 1, got {max_frame}")
        self._max_frame = int(max_frame)
        self._scratch = memoryview(bytearray(SCRATCH_BYTES))
        self._start = 0  # first byte of _scratch not yet yielded
        self._end = 0  # end of the bytes received into _scratch
        self._frame: memoryview | None = None  # body of a frame of its own
        self._filled = 0  # bytes of _frame received so far

    @property
    def buffered(self) -> int:
        """Bytes received but not yet yielded (an incomplete trailing frame)."""
        if self._frame is not None:
            return _LENGTH.size + self._filled
        return self._end - self._start

    def get_buffer(self) -> memoryview:
        """The writable, non-empty view the next received bytes go to.

        Write at most its length to its front, then call :meth:`received`.
        A frame of its own asks for exactly its missing bytes, so one
        receive never runs past it into the next frame.
        """
        if self._frame is not None:
            return self._frame[self._filled:]
        if self._start and (
            self._start == self._end or self._end == len(self._scratch)
        ):
            # The incomplete frame left at the tail fits at the front.
            held = self._end - self._start
            self._scratch[:held] = self._scratch[self._start:self._end]
            self._start, self._end = 0, held
        return self._scratch[self._end:]

    def received(self, nbytes: int) -> Iterator[bytes | memoryview]:
        """Take ``nbytes`` written to the last :meth:`get_buffer` view.

        Returns an iterator over every frame body now complete. The bytes
        count at once; bodies are split off as it is consumed, so consume
        it before the next :meth:`get_buffer`.
        """
        if self._frame is None:
            self._end += nbytes
        else:
            self._filled += nbytes
        return self._bodies()

    def _bodies(self) -> Iterator[bytes | memoryview]:
        frame = self._frame
        if frame is not None:
            if self._filled == len(frame):
                self._frame = None
                yield frame.toreadonly()
            return
        scratch = self._scratch
        while self._end - self._start >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(scratch, self._start)
            if length == 0:
                raise ProtocolError(E_BAD_FRAME, "zero-length frame", fatal=True)
            if length > self._max_frame:
                raise ProtocolError(
                    E_BAD_FRAME,
                    f"frame of {length} bytes exceeds the "
                    f"{self._max_frame}-byte limit",
                    fatal=True,
                )
            begin = self._start + _LENGTH.size
            if _LENGTH.size + length > len(scratch):
                self._open_frame(begin, length)
                return
            end = begin + length
            if end > self._end:
                return  # incomplete: wait for more bytes
            self._start = end
            yield bytes(scratch[begin:end])

    def _open_frame(self, begin: int, length: int) -> None:
        """Move a frame too large for scratch to a buffer of its own,
        once its verb and tenant length, which decide where its keys
        fall, are in."""
        scratch = self._scratch
        held = self._end - begin
        if held < 1 + _U16.size:
            return
        # Up to 7 bytes of padding; the memory is committed as written.
        buffer = np.empty(length + 7, np.uint8)
        pad = 0
        if scratch[begin] == RECORD:
            # A RECORD's keys start 7 + tenant-length bytes into its body.
            (tenant_length,) = _U16.unpack_from(scratch, begin + 1)
            pad = -(buffer.ctypes.data + 7 + tenant_length) % 8
        frame = memoryview(buffer)[pad:pad + length]
        frame[:held] = scratch[begin:self._end]
        self._frame, self._filled = frame, held
        self._start = self._end = 0

    def feed(self, data: bytes) -> Iterator[bytes | memoryview]:
        """Copy ``data`` in and yield every now-complete frame body.

        A loop over :meth:`get_buffer` and :meth:`received`; consume it
        to the end, or the rest of ``data`` is not taken in.
        """
        view = memoryview(data)
        while view:
            buffer = self.get_buffer()
            size = min(len(buffer), len(view))
            buffer[:size] = view[:size]
            view = view[size:]
            yield from self.received(size)

    def check_eof(self) -> None:
        """Raise (fatal) if the stream ended inside a frame."""
        if self.buffered:
            raise ProtocolError(
                E_BAD_FRAME,
                f"stream ended mid-frame ({self.buffered} buffered bytes)",
                fatal=True,
            )
