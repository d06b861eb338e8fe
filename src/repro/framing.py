"""Strict binary-decoding helpers shared by every ``from_bytes``.

Serialized sketches travel between processes (checkpoints) and
between nodes (the serve protocol's EXPORT/MERGE_IN verbs,
compact wire frames), so decoding is adversarial by default. Every
``from_bytes`` in the tree follows one policy, implemented here:

- truncated payloads raise ``ValueError`` with a message naming the
  structure and the field that ran short — never ``struct.error``;
- trailing bytes after the last field raise ``ValueError``: a decoder
  that "succeeds" while ignoring part of its input will silently accept
  corrupt or mis-framed data;
- array fields are copied out of the payload so the restored object
  never aliases (or holds read-only views of) the caller's buffer.

Estimators with declared state (:mod:`repro.estimators.state`) decode
through these helpers generically; the hand-written containers
(``ShardPool``, ``TenantRegistry``, checkpoints, wire frames) call
them directly.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

__all__ = ["unpack_header", "take", "read_array", "require_consumed"]


def unpack_header(header: struct.Struct, data: bytes, what: str) -> tuple[Any, ...]:
    """Unpack a fixed-size header from the front of ``data``.

    Raises ``ValueError`` (never ``struct.error``) when the payload is
    shorter than the header.
    """
    if len(data) < header.size:
        raise ValueError(
            f"truncated header in {what} payload: needs {header.size} "
            f"bytes, got {len(data)}"
        )
    return header.unpack_from(data)


def take(
    data: bytes, offset: int, size: int, what: str, field: str
) -> tuple[bytes, int]:
    """Slice ``size`` bytes for ``field`` at ``offset``; return (bytes, end).

    Raises ``ValueError`` when fewer than ``size`` bytes remain.
    """
    if size < 0:
        raise ValueError(f"corrupt {what} payload: negative {field} length {size}")
    end = offset + size
    if end > len(data):
        raise ValueError(
            f"truncated {field} in {what} payload: needs {size} bytes at "
            f"offset {offset}, only {len(data) - offset} remain"
        )
    return data[offset:end], end


def read_array(
    data: bytes,
    offset: int,
    dtype: np.dtype | type,
    count: int,
    what: str,
    field: str,
) -> tuple[np.ndarray, int]:
    """Read ``count`` elements of ``dtype`` for ``field``; return (array, end).

    The returned array is a writable copy, never a view of ``data``.
    """
    dt = np.dtype(dtype)
    blob, end = take(data, offset, count * dt.itemsize, what, field)
    return np.frombuffer(blob, dtype=dt).copy(), end


def require_consumed(data: bytes, offset: int, what: str) -> None:
    """Reject payloads with bytes left over after the last field."""
    if offset != len(data):
        raise ValueError(
            f"corrupt {what} payload: {len(data) - offset} trailing "
            f"byte(s) after the final field"
        )
