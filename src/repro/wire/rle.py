"""Sparse zero-run-length coding for low-fill bitmap planes.

A bitmap-family sketch far from saturation serializes to a byte string
that is overwhelmingly ``0x00`` with occasional set-bit islands — MRB's
fine components, an early-round SMB plane, FM's zero tail. This codec
stores only the islands: the blob is a sequence of
``(zero run, literal run)`` token pairs::

    u32 n                                 decoded length
    repeated: varint zero_len, varint lit_len, lit_len literal bytes

Runs use LEB128 varints (7 bits per byte, little-endian). Zero gaps
shorter than :data:`MIN_GAP` are cheaper to keep inside a literal run
than to break it (a break costs two varints), so the encoder only
splits on gaps of at least ``MIN_GAP`` zero bytes. :func:`encode`
returns ``None`` for empty input (the frame layer falls back to raw).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.framing import take, unpack_header

__all__ = ["MIN_GAP", "decode", "encode"]

#: Smallest zero run worth breaking a literal run for: a break costs
#: two varint bytes, so runs of 4+ zero bytes are a strict win.
MIN_GAP = 4

_N = struct.Struct("<I")


def _varint(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _read_varint(blob: bytes, offset: int) -> tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if offset >= len(blob):
            raise ValueError("truncated zero-RLE blob: unterminated varint")
        byte = blob[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise ValueError("corrupt zero-RLE blob: varint too long")


def encode(data: bytes) -> bytes | None:
    """Zero-RLE encode ``data``; None when coding is not applicable."""
    if not data:
        return None
    array = np.frombuffer(data, dtype=np.uint8)
    n = array.size
    nonzero = np.flatnonzero(array)
    out = bytearray(_N.pack(n))
    if nonzero.size == 0:
        out += _varint(n) + _varint(0)
        return bytes(out)
    # Literal segments: maximal nonzero stretches, merged across zero
    # gaps shorter than MIN_GAP.
    gaps = np.diff(nonzero)
    breaks = np.flatnonzero(gaps > MIN_GAP)
    seg_starts = np.concatenate(([nonzero[0]], nonzero[breaks + 1]))
    seg_ends = np.concatenate((nonzero[breaks], [nonzero[-1]])) + 1
    cursor = 0
    for start, end in zip(seg_starts.tolist(), seg_ends.tolist()):
        out += _varint(start - cursor)
        out += _varint(end - start)
        out += data[start:end]
        cursor = end
    if cursor < n:
        out += _varint(n - cursor) + _varint(0)
    return bytes(out)


def decode(blob: bytes, size: int) -> bytes:
    """Decode an :func:`encode` blob of ``size`` source bytes.

    Strict ``ValueError`` on corruption; a blob whose header says a
    length other than ``size`` is rejected before anything is allocated.
    """
    (n,) = unpack_header(_N, blob, "zero-RLE blob")
    if n != size:
        raise ValueError(
            f"corrupt zero-RLE blob: header length {n}, expected {size}"
        )
    offset = _N.size
    out = bytearray(n)
    cursor = 0
    while offset < len(blob) or cursor < n:
        zero_len, offset = _read_varint(blob, offset)
        lit_len, offset = _read_varint(blob, offset)
        cursor += zero_len
        if cursor + lit_len > n:
            raise ValueError("corrupt zero-RLE blob: runs overflow length")
        literal, offset = take(blob, offset, lit_len, "zero-RLE blob", "literal run")
        out[cursor:cursor + lit_len] = literal
        cursor += lit_len
        if zero_len == 0 and lit_len == 0:
            raise ValueError("corrupt zero-RLE blob: empty token")
    if cursor != n:
        raise ValueError(
            f"truncated zero-RLE blob: produced {cursor} of {n} bytes"
        )
    if offset != len(blob):
        raise ValueError("corrupt zero-RLE blob: trailing bytes after runs")
    return bytes(out)
