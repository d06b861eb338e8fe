"""Atomic on-disk snapshots of estimators and shard pools.

Checkpoint files wrap the estimators' own ``to_bytes`` serialization,
and the caller's metadata, in a small versioned container (version 2)::

    magic "RPCK" | u16 version | u8 class-name length | class name
    | u32 meta length | meta (canonical JSON object)
    | u64 payload length | payload | u32 CRC-32 of every preceding byte

One file therefore publishes a state together with what a resume needs
to know about it (the stream offset it was taken at). :func:`save`
writes the head, the payload and the CRC as separate parts under one
running CRC, so no joined copy of the payload is ever built.

Files are written **atomically and durably**: the bytes go to a temporary
file in the target directory (re-chmodded from ``mkstemp``'s private
0600 to honor the process umask, like a plain ``open()`` would), are
flushed and fsynced, the file is then renamed over the destination with
``os.replace``, and finally the containing directory is fsynced so the
rename itself survives a crash (pass ``sync_directory=False`` to skip
that last step in tests). A crash mid-checkpoint leaves the previous
checkpoint intact; a crash *before* the rename can orphan a
``.checkpoint-*`` temp file, which
:class:`~repro.engine.recovery.CheckpointManager` sweeps at startup.
Both crash windows carry :mod:`repro.testing.faults` failpoints
(``checkpoint.pre-fsync``, ``checkpoint.post-replace``) so the
fault-injection suite can prove those guarantees.

Validation at load time is **strict**: a torn, corrupted, or padded
file is rejected rather than deserialized into a silently-wrong
estimator. The container enforces exact framing — every length-prefixed
field must be complete and the file must end exactly at the CRC — then
checks the CRC, and only then parses the metadata, which must be a
UTF-8 JSON object. Every failure is a ``ValueError``; version-1 files
(which kept their metadata elsewhere) are refused as unsupported.

When observability is enabled (:mod:`repro.obs`), saves and loads
record byte counters and duration histograms
(``repro_checkpoint_{save,load}_{bytes_total,seconds}``).

:func:`save` / :func:`read` / :func:`load` work for every class
:func:`~repro.estimators.registry.sketch_registry` accepts at its
``"checkpoint"`` scope: the serializable estimators, the
:class:`~repro.engine.shards.ShardPool` (whose payload nests the
per-shard blobs) and the serving layer's ``TenantRegistry``. Restoring
yields an estimator that continues ingesting exactly as the
uninterrupted original would — the stateful engine test drives
interleaved ingest/checkpoint/restore cycles to prove it.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import time
import zlib
from typing import Any, cast

from repro.estimators.base import CardinalityEstimator
from repro.estimators.registry import sketch_registry
from repro.framing import require_consumed, take, unpack_header
from repro.obs.metrics import get_registry
from repro.testing.faults import fire

#: Prefix of the temporary files :func:`save` writes before the atomic
#: rename. Recovery's orphan sweep keys on it
#: (:meth:`repro.engine.recovery.CheckpointManager.sweep_orphans`).
TEMP_PREFIX = ".checkpoint-"

_HEADER = struct.Struct("<4sHB")  # magic, version, class-name length
_META_LENGTH = struct.Struct("<I")
_PAYLOAD_LENGTH = struct.Struct("<Q")
_CRC = struct.Struct("<I")
_MAGIC = b"RPCK"
_VERSION = 2
_WHAT = "checkpoint"


def _current_umask() -> int:
    """The process umask, read without changing it observably.

    POSIX offers no read-only accessor: the mask is read by setting it
    and immediately restoring it. The set/restore pair is not atomic
    with respect to other threads calling ``os.umask`` concurrently —
    nothing in this library does, and the window is two syscalls wide.
    """
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _fsync_directory(directory: str) -> None:
    """Fsync a directory so a rename into it is crash-durable.

    Best-effort and guarded: platforms without ``O_DIRECTORY`` (or
    whose filesystems refuse to open/fsync directories, e.g. Windows)
    are silently skipped — the rename is still atomic there, just not
    guaranteed durable across power loss.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        descriptor = os.open(directory, flags)
    except OSError:
        return
    try:
        os.fsync(descriptor)
    except OSError:
        pass
    finally:
        os.close(descriptor)


def save(
    estimator: CardinalityEstimator,
    path: str | os.PathLike[str],
    meta: dict[str, Any] | None = None,
    sync_directory: bool = True,
) -> int:
    """Atomically write an estimator snapshot; returns bytes written.

    The estimator must support ``to_bytes`` and be restorable through
    :func:`load` (i.e. its class must be registered for checkpoints).
    ``meta`` (default ``{}``) is stored beside the state as canonical
    JSON and comes back from :func:`read`. After the temp file is
    fsynced and renamed into place, the containing directory is fsynced
    as well so the rename survives a crash; pass
    ``sync_directory=False`` to skip that (tests, throwaway dirs).
    """
    obs = get_registry()
    began = time.perf_counter() if obs.enabled else 0.0
    class_name = type(estimator).__name__
    if class_name not in sketch_registry("checkpoint"):
        raise ValueError(
            f"{class_name} is not checkpointable (not registered for "
            "checkpoints)"
        )
    meta_bytes = json.dumps(
        dict(meta or {}), sort_keys=True, separators=(",", ":")
    ).encode("ascii")
    payload = estimator.to_bytes()
    name_bytes = class_name.encode("ascii")
    head = b"".join(
        (
            _HEADER.pack(_MAGIC, _VERSION, len(name_bytes)),
            name_bytes,
            _META_LENGTH.pack(len(meta_bytes)),
            meta_bytes,
            _PAYLOAD_LENGTH.pack(len(payload)),
        )
    )
    crc = _CRC.pack(zlib.crc32(payload, zlib.crc32(head)))
    written = len(head) + len(payload) + len(crc)
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    descriptor, temp_path = tempfile.mkstemp(
        prefix=TEMP_PREFIX, dir=directory
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            # mkstemp creates the file 0600 regardless of umask (it is
            # private scratch space); the *final* checkpoint must carry
            # the permissions a plain open() would have produced, so
            # widen to 0666 minus the process umask before the rename
            # publishes the file.
            if hasattr(os, "fchmod"):
                os.fchmod(handle.fileno(), 0o666 & ~_current_umask())
            handle.write(head)
            handle.write(payload)
            handle.write(crc)
            handle.flush()
            fire("checkpoint.pre-fsync")
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
        fire("checkpoint.post-replace")
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    if sync_directory:
        _fsync_directory(directory)
    if obs.enabled:
        obs.counter(
            "repro_checkpoint_save_bytes_total",
            "Checkpoint bytes written by save()",
        ).inc(written)
        obs.histogram(
            "repro_checkpoint_save_seconds",
            "Wall time of one checkpoint save()",
        ).observe(time.perf_counter() - began)
    return written


def read(
    path: str | os.PathLike[str],
) -> tuple[CardinalityEstimator, dict[str, Any]]:
    """Load, validate and restore a checkpoint; returns (estimator, meta).

    Raises ``ValueError`` for anything that is not a complete, intact
    checkpoint: wrong magic, unknown version or class, truncation,
    trailing bytes after the CRC, a CRC mismatch, or metadata that is
    not a UTF-8 JSON object.
    """
    obs = get_registry()
    began = time.perf_counter() if obs.enabled else 0.0
    with open(os.fspath(path), "rb") as handle:
        data = handle.read()
    magic, version, name_length = unpack_header(_HEADER, data, _WHAT)
    if magic != _MAGIC:
        raise ValueError("not a checkpoint file: bad magic")
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    name, offset = take(data, _HEADER.size, name_length, _WHAT, "class name")
    meta_bytes, offset = _take_prefixed(data, offset, _META_LENGTH, "meta")
    payload, offset = _take_prefixed(data, offset, _PAYLOAD_LENGTH, "body")
    crc, end = take(data, offset, _CRC.size, _WHAT, "CRC")
    require_consumed(data, end, _WHAT)
    if zlib.crc32(memoryview(data)[:offset]) != _CRC.unpack(crc)[0]:
        raise ValueError("corrupt checkpoint: CRC mismatch")
    meta = _decode_meta(meta_bytes)
    class_name = name.decode("ascii")
    cls = sketch_registry("checkpoint").get(class_name)
    if cls is None:
        raise ValueError(f"unknown checkpoint class {class_name!r}")
    # A TenantRegistry has the same to_bytes/from_bytes surface without
    # subclassing the estimator base.
    estimator = cast(CardinalityEstimator, cls.from_bytes(payload))
    if obs.enabled:
        obs.counter(
            "repro_checkpoint_load_bytes_total",
            "Checkpoint bytes read by load()",
        ).inc(len(data))
        obs.histogram(
            "repro_checkpoint_load_seconds",
            "Wall time of one checkpoint load()",
        ).observe(time.perf_counter() - began)
    return estimator, meta


def load(path: str | os.PathLike[str]) -> CardinalityEstimator:
    """The estimator of :func:`read`, without its metadata."""
    return read(path)[0]


def _take_prefixed(
    data: bytes, offset: int, prefix: struct.Struct, field: str
) -> tuple[bytes, int]:
    """Slice a field preceded by its length; return (bytes, end)."""
    raw, offset = take(data, offset, prefix.size, _WHAT, f"{field} length")
    (size,) = prefix.unpack(raw)
    return take(data, offset, size, _WHAT, field)


def _decode_meta(meta_bytes: bytes) -> dict[str, Any]:
    """The metadata object; ``ValueError`` for anything else."""
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except RecursionError:
        raise ValueError("corrupt checkpoint: meta nests too deeply") from None
    if not isinstance(meta, dict):
        raise ValueError(
            f"corrupt checkpoint: meta is a {type(meta).__name__}, "
            "not a JSON object"
        )
    return meta
