"""Atomic on-disk snapshots of estimators and shard pools.

Checkpoint files wrap the estimators' own ``to_bytes`` serialization in
a small versioned container::

    magic "RPCK" | u16 version | u8 class-name length | class name
    | u32 CRC-32 of payload | u64 payload length | payload

and are written **atomically and durably**: the bytes go to a temporary
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
estimator. Beyond the magic/version/CRC checks, the container enforces
exact framing — the class-name slice must be complete, and the file
must end exactly at ``offset + payload_length`` (trailing bytes after
the payload, e.g. from a concatenated or overwritten-in-place file,
raise ``ValueError`` even though the CRC over the payload prefix would
pass).

When observability is enabled (:mod:`repro.obs`), saves and loads
record byte counters and duration histograms
(``repro_checkpoint_{save,load}_{bytes_total,seconds}``).

:func:`save` / :func:`load` work for every class
:func:`~repro.estimators.registry.sketch_registry` accepts at its
``"checkpoint"`` scope: the serializable estimators, the
:class:`~repro.engine.shards.ShardPool` (whose payload nests the
per-shard blobs) and the serving layer's ``TenantRegistry``. Restoring
yields an estimator that continues ingesting exactly as the
uninterrupted original would — the stateful engine test drives
interleaved ingest/checkpoint/restore cycles to prove it.
"""

from __future__ import annotations

import os
import struct
import tempfile
import time
import zlib
from typing import cast

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
_TRAILER = struct.Struct("<IQ")  # crc32, payload length
_MAGIC = b"RPCK"
_VERSION = 1


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
    sync_directory: bool = True,
) -> int:
    """Atomically write an estimator snapshot; returns bytes written.

    The estimator must support ``to_bytes`` and be restorable through
    :func:`load` (i.e. its class must be registered for checkpoints). After
    the temp file is fsynced and renamed into place, the containing
    directory is fsynced as well so the rename survives a crash; pass
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
    payload = estimator.to_bytes()
    name_bytes = class_name.encode("ascii")
    blob = b"".join(
        (
            _HEADER.pack(_MAGIC, _VERSION, len(name_bytes)),
            name_bytes,
            _TRAILER.pack(zlib.crc32(payload), len(payload)),
            payload,
        )
    )
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
            handle.write(blob)
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
        ).inc(len(blob))
        obs.histogram(
            "repro_checkpoint_save_seconds",
            "Wall time of one checkpoint save()",
        ).observe(time.perf_counter() - began)
    return len(blob)


def load(path: str | os.PathLike[str]) -> CardinalityEstimator:
    """Load, validate and restore a checkpoint written by :func:`save`.

    Raises ``ValueError`` for anything that is not a complete, intact
    checkpoint: wrong magic, unknown version or class, truncation, a
    payload CRC mismatch, or trailing bytes after the payload (the file
    must end exactly where the declared payload does).
    """
    obs = get_registry()
    began = time.perf_counter() if obs.enabled else 0.0
    with open(os.fspath(path), "rb") as handle:
        data = handle.read()
    magic, version, name_length = unpack_header(_HEADER, data, "checkpoint")
    if magic != _MAGIC:
        raise ValueError("not a checkpoint file: bad magic")
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    what = "checkpoint"
    name, offset = take(data, _HEADER.size, name_length, what, "class name")
    trailer, offset = take(data, offset, _TRAILER.size, what, "trailer")
    crc, payload_length = _TRAILER.unpack(trailer)
    payload, offset = take(data, offset, payload_length, what, "body")
    # Strict framing: trailing garbage is rejected too, since a
    # concatenated or overwritten-in-place file would pass the CRC over
    # the payload prefix.
    require_consumed(data, offset, what)
    if zlib.crc32(payload) != crc:
        raise ValueError("corrupt checkpoint: payload CRC mismatch")
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
    return estimator
