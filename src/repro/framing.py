"""Strict binary-decoding helpers shared by every ``from_bytes``.

Serialized sketches cross processes and nodes, so decoding is
adversarial by default. Every ``from_bytes`` follows one policy:

- a truncated payload raises ``ValueError`` naming the structure and
  the field that ran short — never ``struct.error``;
- bytes after the last field raise ``ValueError``;
- a payload is decoded in one copy: :func:`take` returns views of the
  caller's buffer and :func:`read_array` makes each array's one copy,
  so a restored object never aliases that buffer. A view has no
  ``.decode``: text is read with ``str(view, encoding)``.

The one (name, blob) list ends both a ``ShardPool`` payload (class
name, shard blob) and a ``TenantRegistry`` payload (tenant, pool)::

    u32 count | per entry: u16 name length | name | u64 blob length | blob

The envelope around a whole sketch is :mod:`repro.wire.frame`'s.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Iterator, Sequence

import numpy as np

__all__ = [
    "json_object",
    "pack_entries",
    "read_array",
    "read_entries",
    "require_consumed",
    "take",
    "unpack_header",
]

_COUNT = struct.Struct("<I")
_NAME = struct.Struct("<H")
_BLOB = struct.Struct("<Q")


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
) -> tuple[memoryview, int]:
    """View ``size`` bytes for ``field`` at ``offset``; return (view, end).

    The view shares ``data``'s memory: nothing is copied. Raises
    ``ValueError`` when fewer than ``size`` bytes remain.
    """
    if size < 0:
        raise ValueError(f"corrupt {what} payload: negative {field} length {size}")
    end = offset + size
    if end > len(data):
        raise ValueError(
            f"truncated {field} in {what} payload: needs {size} bytes at "
            f"offset {offset}, only {len(data) - offset} remain"
        )
    return memoryview(data)[offset:end], end


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


def json_object(data: bytes, what: str, field: str) -> dict[str, Any]:
    """The UTF-8 JSON object in ``data``; ``ValueError`` for anything else."""
    try:
        value = json.loads(str(data, "utf-8"))
    except RecursionError:
        raise ValueError(f"corrupt {what}: {field} nests too deeply") from None
    except ValueError as error:
        raise ValueError(f"corrupt {what}: bad {field} ({error})") from None
    if not isinstance(value, dict):
        raise ValueError(
            f"corrupt {what}: {field} is a {type(value).__name__}, "
            "not a JSON object"
        )
    return value


def pack_entries(head: bytes, entries: Sequence[tuple[bytes, bytes]]) -> bytes:
    """``head`` followed by the (name, blob) list of ``entries``."""
    parts = [head, _COUNT.pack(len(entries))]
    for name, blob in entries:
        parts += (_NAME.pack(len(name)), name, _BLOB.pack(len(blob)), blob)
    return b"".join(parts)


def read_entries(
    data: bytes, offset: int, what: str, field: str
) -> tuple[int, Iterator[tuple[memoryview, memoryview]]]:
    """The count of the (name, blob) list at ``offset``, and its entries.

    Entries are read as they are iterated; the list ends the payload, so
    exhausting them raises ``ValueError`` if any byte is left over.
    """
    raw, offset = take(data, offset, _COUNT.size, what, f"{field} count")
    (count,) = _COUNT.unpack(raw)
    return count, _entries(data, offset, count, what, field)


def _entries(
    data: bytes, offset: int, count: int, what: str, field: str
) -> Iterator[tuple[memoryview, memoryview]]:
    for __ in range(count):
        raw, offset = take(data, offset, _NAME.size, what, f"{field} name length")
        name, offset = take(data, offset, _NAME.unpack(raw)[0], what, f"{field} name")
        raw, offset = take(data, offset, _BLOB.size, what, f"{field} length")
        blob, offset = take(data, offset, _BLOB.unpack(raw)[0], what, f"{field} blob")
        yield name, blob
    require_consumed(data, offset, what)
