"""The one envelope around a serialized sketch: wire frame and checkpoint.

A frame carries one sketch's ``to_bytes`` payload and the caller's
metadata between nodes (EXPORT/MERGE_IN, ``repro agg`` inputs) and to
disk: a :mod:`repro.engine.checkpoint` file *is* a frame, raw codec.
This module alone knows the layout (little-endian)::

    4s magic b"RWF1" | u8 version (2) | u8 codec (see WIRE_CODECS)
    | u16 class-name length | class name (ASCII, a registry key)
    | u32 meta length | meta (canonical JSON object; ``{}`` on the wire)
    | u64 raw length | u64 blob length | blob | u32 CRC-32 of all before

:func:`envelope` is its one encoder and :func:`parse` its one parser.
:func:`encode_sketch` tries the codecs suited to the sketch's declared
array family (HBS-style Huffman for register arrays, zero-RLE for
low-fill bitmap planes) and keeps the raw payload unless one wins.
Decoding is strict (any bad field, a CRC mismatch, then meta over
:data:`MAX_META_BYTES` or not a UTF-8 JSON object: ``ValueError``).
Each caller passes its registry scope and raw-length bound —
:data:`MAX_RAW_BYTES` on the wire, a checkpoint file's own size —
checked before anything is decoded. Parsing copies nothing: the blob
is a view of the input.
"""

from __future__ import annotations

import json
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Any, NamedTuple, cast

from repro.estimators.base import CardinalityEstimator
from repro.estimators.registry import sketch_registry
from repro.estimators.state import BITMAP, REGISTERS
from repro.framing import json_object, require_consumed, take, unpack_header
from repro.obs import get_registry
from repro.obs.instrument import WIRE_CODECS, WireMetrics
from repro.wire import huffman, rle

__all__ = [
    "CODEC_HUFFMAN",
    "CODEC_RAW",
    "CODEC_ZRLE",
    "Envelope",
    "FrameInfo",
    "MAX_META_BYTES",
    "MAX_RAW_BYTES",
    "decode_sketch",
    "encode_sketch",
    "envelope",
    "frame_info",
    "parse",
]

MAGIC = b"RWF1"
VERSION = 2

#: Largest payload a frame may carry, equal to the serve protocol's
#: default max frame. Decoding checks it before allocating anything.
MAX_RAW_BYTES = 16 * 1024 * 1024

#: Largest meta a frame may carry, on the wire and on disk alike (a
#: checkpoint's is about 100 bytes). Parsing checks it before the JSON
#: parser runs, so a sealed frame-sized meta never builds an object tree.
MAX_META_BYTES = 4096

CODEC_RAW = 0
CODEC_HUFFMAN = 1
CODEC_ZRLE = 2

_CODERS = {
    CODEC_HUFFMAN: (huffman.encode, huffman.decode),
    CODEC_ZRLE: (rle.encode, rle.decode),
}

_HEAD = struct.Struct("<4sBBH")  # magic, version, codec, class-name length
_META_LENGTH = struct.Struct("<I")
_LENGTHS = struct.Struct("<QQ")  # raw length, blob length
_CRC = struct.Struct("<I")
_WHAT = "frame"

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


class Envelope(NamedTuple):
    """A frame's validated fields; ``blob`` is a view of the input."""

    class_name: str
    codec: int
    meta: dict[str, Any]
    raw_len: int
    blob: memoryview

    def restore(self, scope: str) -> CardinalityEstimator:
        """Decode the blob into the sketch, its class resolved at ``scope``."""
        cls = sketch_registry(scope).get(self.class_name)
        if cls is None:
            raise ValueError(
                f"{scope} frame carries unknown class {self.class_name!r}"
            )
        raw: bytes | memoryview = self.blob
        if self.codec != CODEC_RAW:
            raw = _CODERS[self.codec][1](self.blob, self.raw_len)
        elif len(self.blob) != self.raw_len:
            raise ValueError(
                f"corrupt frame: decoded {len(self.blob)} bytes, "
                f"header promised {self.raw_len}"
            )
        # A TenantRegistry has the same to_bytes/from_bytes surface
        # without subclassing the estimator base.
        return cast(CardinalityEstimator, cls.from_bytes(raw))


def envelope(
    class_name: str,
    codec: int,
    raw_len: int,
    blob: bytes,
    meta: dict[str, Any] | None = None,
) -> tuple[bytes, bytes]:
    """The frame around ``blob``: (every byte before it, the CRC after it).

    ``meta`` (default ``{}``) is stored as canonical JSON, at most
    :data:`MAX_META_BYTES` of it; a caller may write head, blob and CRC
    separately and never join them.
    """
    name = class_name.encode("ascii")
    meta_bytes = json.dumps(
        dict(meta or {}), sort_keys=True, separators=(",", ":")
    ).encode("ascii")
    if len(meta_bytes) > MAX_META_BYTES:
        raise ValueError(f"frame meta exceeds {MAX_META_BYTES} bytes")
    head = b"".join((
        _HEAD.pack(MAGIC, VERSION, codec, len(name)),
        name,
        _META_LENGTH.pack(len(meta_bytes)),
        meta_bytes,
        _LENGTHS.pack(raw_len, len(blob)),
    ))
    return head, _CRC.pack(zlib.crc32(blob, zlib.crc32(head)))


def parse(data: bytes, max_raw: int) -> Envelope:
    """Validate every field of ``data``; a raw length over ``max_raw`` fails."""
    magic, version, codec, name_length = unpack_header(_HEAD, data, _WHAT)
    if magic != MAGIC:
        raise ValueError("not a sketch frame: bad magic")
    if version != VERSION:
        raise ValueError(f"unsupported frame version {version}")
    if codec not in (CODEC_RAW, *_CODERS):
        raise ValueError(f"unknown frame codec {codec}")
    name, offset = take(data, _HEAD.size, name_length, _WHAT, "class name")
    raw, offset = take(data, offset, _META_LENGTH.size, _WHAT, "meta length")
    meta, offset = take(data, offset, _META_LENGTH.unpack(raw)[0], _WHAT, "meta")
    raw, offset = take(data, offset, _LENGTHS.size, _WHAT, "lengths")
    raw_len, blob_len = _LENGTHS.unpack(raw)
    if raw_len > max_raw:
        raise ValueError(f"frame payload of {raw_len} bytes exceeds the {max_raw}-byte limit")
    blob, offset = take(data, offset, blob_len, _WHAT, "blob")
    crc, end = take(data, offset, _CRC.size, _WHAT, "CRC")
    require_consumed(data, end, _WHAT)
    if zlib.crc32(memoryview(data)[:offset]) != _CRC.unpack(crc)[0]:
        raise ValueError("corrupt frame: CRC mismatch")
    if len(meta) > MAX_META_BYTES:
        raise ValueError(f"frame meta exceeds {MAX_META_BYTES} bytes")
    meta_object = json_object(meta, _WHAT, "meta")
    # A non-ASCII name is a UnicodeDecodeError, itself a ValueError.
    return Envelope(str(name, "ascii"), codec, meta_object, raw_len, blob)


def _candidate_codecs(sketch: CardinalityEstimator) -> tuple[int, ...]:
    family = sketch.state.family if sketch.state is not None else None
    return _FAMILY_CODECS.get(family, _OTHER_CODECS)


def _metrics() -> WireMetrics | None:
    registry = get_registry()
    if not registry.enabled:
        return None
    # Families are idempotent per registry, so this is cheap to rebuild.
    return WireMetrics(registry)


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
    head, crc = envelope(class_name, best_codec, len(raw), best_blob)
    frame = b"".join((head, best_blob, crc))
    metrics = _metrics()
    if metrics is not None:
        metrics.encoded[WIRE_CODECS[best_codec]].inc()
        metrics.raw_bytes.inc(len(raw))
        metrics.wire_bytes.inc(len(frame))
        metrics.encode_seconds.observe(time.perf_counter() - started)
    return frame


def frame_info(frame: bytes) -> FrameInfo:
    """Parse and validate a frame's header without decoding the sketch."""
    parsed = parse(frame, MAX_RAW_BYTES)
    return FrameInfo(
        parsed.class_name, WIRE_CODECS[parsed.codec], parsed.raw_len, len(frame)
    )


def decode_sketch(frame: bytes) -> CardinalityEstimator:
    """Decode a wire frame back into its sketch, bit-exactly.

    Strict inverse of :func:`encode_sketch`: what :func:`parse` or
    :meth:`Envelope.restore` refuses at the ``"wire"`` scope, under
    :data:`MAX_RAW_BYTES`, raises ``ValueError``.
    """
    started = time.perf_counter()
    metrics = _metrics()
    try:
        parsed = parse(frame, MAX_RAW_BYTES)
        sketch = parsed.restore("wire")
    except ValueError:
        if metrics is not None:
            metrics.decode_errors.inc()
        raise
    if metrics is not None:
        metrics.decoded[WIRE_CODECS[parsed.codec]].inc()
        metrics.decode_seconds.observe(time.perf_counter() - started)
    return sketch
