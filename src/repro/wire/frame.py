"""Versioned, self-describing compact sketch frames.

A frame wraps one serialized sketch (any class
:func:`~repro.estimators.registry.sketch_registry` accepts at its
``"wire"`` scope: every serializable estimator and a whole
:class:`~repro.engine.shards.ShardPool`) for transport between nodes —
the EXPORT/MERGE_IN verbs of the serve protocol, ``repro agg`` inputs,
or files on disk. Layout (little-endian)::

    4s  magic  b"RWF1"
    u8  version (1)
    u8  codec   (0 = raw, 1 = huffman, 2 = zrle; see WIRE_CODECS)
    u16 class-name length | class name (ASCII, a registry key)
    u32 raw length    (len(to_bytes()) — decoded payload size, at most
                       MAX_RAW_BYTES)
    u32 blob length   | blob (codec output, or the raw payload itself)
    u32 CRC32 of every preceding byte

:func:`encode_sketch` tries the entropy codecs suited to the sketch's
declared array family (:mod:`repro.estimators.state`) — HBS-style
Huffman for register arrays, zero-run-length coding for low-fill bitmap
planes — and keeps the raw payload whenever compression does not win,
so a frame never exceeds raw size plus the fixed header.
:func:`decode_sketch` is strict: bad magic, version, codec, CRC, class
name, length mismatch or trailing bytes all raise ``ValueError``; the
decoded payload is handed to the registered class's ``from_bytes``, so
a round-trip is bit-exact by construction. A frame cannot make the
decoder allocate more than :data:`MAX_RAW_BYTES`: the raw length is
checked against it, and each codec must produce exactly that length,
before anything is decoded.
"""

from __future__ import annotations

import struct
import time
import zlib
from dataclasses import dataclass

from repro.estimators.base import CardinalityEstimator
from repro.estimators.registry import sketch_registry
from repro.estimators.state import BITMAP, REGISTERS
from repro.framing import require_consumed, take, unpack_header
from repro.obs import get_registry
from repro.obs.instrument import WIRE_CODECS, WireMetrics
from repro.wire import huffman, rle

__all__ = [
    "CODEC_HUFFMAN",
    "CODEC_RAW",
    "CODEC_ZRLE",
    "FrameInfo",
    "MAX_RAW_BYTES",
    "decode_sketch",
    "encode_sketch",
    "frame_info",
]

MAGIC = b"RWF1"
VERSION = 1

#: Largest payload a frame may carry, equal to the serve protocol's
#: default max frame. Decoding checks it before allocating anything.
MAX_RAW_BYTES = 16 * 1024 * 1024

CODEC_RAW = 0
CODEC_HUFFMAN = 1
CODEC_ZRLE = 2

_CODERS = {
    CODEC_HUFFMAN: (huffman.encode, huffman.decode),
    CODEC_ZRLE: (rle.encode, rle.decode),
}

_HEAD = struct.Struct("<4sBBH")  # magic, version, codec, class-name length
_U32 = struct.Struct("<I")

#: Codecs to try per declared array family. Register arrays hold small
#: geometric ranks: Huffman is the natural fit, zero-RLE only wins while
#: nearly empty. Bitmap planes are zero-dominated at realistic fills:
#: zero-RLE first, Huffman still helps once the plane densifies. Other
#: payloads (KMV's hash values, a ShardPool) try both.
_FAMILY_CODECS: dict[str | None, tuple[int, ...]] = {
    REGISTERS: (CODEC_HUFFMAN,),
    BITMAP: (CODEC_ZRLE, CODEC_HUFFMAN),
}
_OTHER_CODECS = (CODEC_HUFFMAN, CODEC_ZRLE)


@dataclass(frozen=True)
class FrameInfo:
    """Parsed frame header (no payload decode)."""

    class_name: str
    codec: str
    raw_bytes: int
    frame_bytes: int

    @property
    def ratio(self) -> float:
        """Compression ratio raw/frame (> 1 means the frame is smaller)."""
        return self.raw_bytes / self.frame_bytes if self.frame_bytes else 0.0


def _candidate_codecs(sketch: CardinalityEstimator) -> tuple[int, ...]:
    family = sketch.state.family if sketch.state is not None else None
    return _FAMILY_CODECS.get(family, _OTHER_CODECS)


def _metrics() -> WireMetrics | None:
    registry = get_registry()
    if not registry.enabled:
        return None
    # Families are idempotent per registry, so this is cheap to rebuild.
    return WireMetrics(registry)


def _assemble(class_name: bytes, codec: int, raw_len: int, blob: bytes) -> bytes:
    body = (
        _HEAD.pack(MAGIC, VERSION, codec, len(class_name))
        + class_name
        + _U32.pack(raw_len)
        + _U32.pack(len(blob))
        + blob
    )
    return body + _U32.pack(zlib.crc32(body))


def encode_sketch(
    sketch: CardinalityEstimator, codec: int | None = None
) -> bytes:
    """Encode ``sketch`` into a compact wire frame.

    ``codec`` forces a specific codec (raw fallback still applies when
    the codec declines or does not win); by default the family-preferred
    entropy codecs compete against the raw payload and the smallest
    frame wins. Raises ``NotImplementedError`` for sketches without
    serialization support, ``TypeError`` for classes the registry does
    not accept in a frame, and ``ValueError`` for a payload over
    :data:`MAX_RAW_BYTES`, which no decoder would accept.
    """
    started = time.perf_counter()
    class_name = type(sketch).__name__
    if class_name not in sketch_registry("wire"):
        raise TypeError(f"{class_name} is not wire-serializable")
    raw = sketch.to_bytes()
    if len(raw) > MAX_RAW_BYTES:
        raise ValueError(
            f"{class_name} payload of {len(raw)} bytes exceeds the "
            f"{MAX_RAW_BYTES}-byte frame limit"
        )
    name_bytes = class_name.encode("ascii")
    candidates = _candidate_codecs(sketch) if codec is None else (codec,)
    best_codec = CODEC_RAW
    best_blob = raw
    for candidate in candidates:
        if candidate == CODEC_RAW:
            continue
        encoded = _CODERS[candidate][0](raw)
        if encoded is not None and len(encoded) < len(best_blob):
            best_codec = candidate
            best_blob = encoded
    frame = _assemble(name_bytes, best_codec, len(raw), best_blob)
    metrics = _metrics()
    if metrics is not None:
        metrics.encoded[WIRE_CODECS[best_codec]].inc()
        metrics.raw_bytes.inc(len(raw))
        metrics.wire_bytes.inc(len(frame))
        metrics.encode_seconds.observe(time.perf_counter() - started)
    return frame


def _parse(frame: bytes) -> tuple[str, int, int, bytes]:
    """Validate framing and return (class_name, codec, raw_len, blob)."""
    magic, version, codec, name_len = unpack_header(_HEAD, frame, "wire frame")
    if magic != MAGIC:
        raise ValueError("not a sketch wire frame (bad magic)")
    if version != VERSION:
        raise ValueError(f"unsupported wire frame version {version}")
    if codec not in (CODEC_RAW, *_CODERS):
        raise ValueError(f"unknown wire frame codec {codec}")
    offset = _HEAD.size
    name_bytes, offset = take(frame, offset, name_len, "wire frame", "class name")
    blob_head, offset = take(frame, offset, 2 * _U32.size, "wire frame", "lengths")
    raw_len, blob_len = struct.unpack("<II", blob_head)
    if raw_len > MAX_RAW_BYTES:
        raise ValueError(
            f"wire frame payload of {raw_len} bytes exceeds the "
            f"{MAX_RAW_BYTES}-byte limit"
        )
    blob, offset = take(frame, offset, blob_len, "wire frame", "blob")
    crc_bytes, offset = take(frame, offset, _U32.size, "wire frame", "checksum")
    require_consumed(frame, offset, "wire frame")
    (crc,) = _U32.unpack(crc_bytes)
    if crc != zlib.crc32(frame[: -_U32.size]):
        raise ValueError("corrupt wire frame: checksum mismatch")
    try:
        class_name = name_bytes.decode("ascii")
    except UnicodeDecodeError as error:
        raise ValueError("corrupt wire frame: non-ASCII class name") from error
    return class_name, codec, raw_len, blob


def frame_info(frame: bytes) -> FrameInfo:
    """Parse and validate a frame's header without decoding the sketch."""
    class_name, codec, raw_len, _ = _parse(frame)
    return FrameInfo(
        class_name=class_name,
        codec=WIRE_CODECS[codec],
        raw_bytes=raw_len,
        frame_bytes=len(frame),
    )


def decode_sketch(frame: bytes) -> CardinalityEstimator:
    """Decode a wire frame back into its sketch, bit-exactly.

    Strict inverse of :func:`encode_sketch`: any framing, checksum,
    codec or payload corruption raises ``ValueError``.
    """
    started = time.perf_counter()
    metrics = _metrics()
    try:
        class_name, codec, raw_len, blob = _parse(frame)
        cls = sketch_registry("wire").get(class_name)
        if cls is None:
            raise ValueError(f"wire frame carries unknown class {class_name!r}")
        if codec != CODEC_RAW:
            raw = _CODERS[codec][1](blob, raw_len)
        elif len(blob) == raw_len:
            raw = blob
        else:
            raise ValueError(
                f"corrupt wire frame: decoded {len(blob)} bytes, "
                f"header promised {raw_len}"
            )
        sketch = cls.from_bytes(raw)
    except ValueError:
        if metrics is not None:
            metrics.decode_errors.inc()
        raise
    if metrics is not None:
        metrics.decoded[WIRE_CODECS[codec]].inc()
        metrics.decode_seconds.observe(time.perf_counter() - started)
    return sketch
