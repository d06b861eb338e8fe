"""Atomic on-disk snapshots of estimators and shard pools.

A checkpoint file is one :mod:`repro.wire.frame` envelope, raw codec:
the estimator's ``to_bytes`` payload plus the caller's metadata (the
stream offset a resume needs) under one CRC. :func:`save` writes the
head, the payload and the CRC as separate parts, so no joined copy of
the payload is built. :func:`read` parses with the frame's parser,
bounded by the file's own size rather than the wire's
``MAX_RAW_BYTES``: a large pool's checkpoint outgrows the latter.
Every failure is a ``ValueError``.

Files are written **atomically and durably**: to a temporary file in
the target directory (widened from ``mkstemp``'s 0600 to what the umask
allows), fsynced, renamed over the destination with ``os.replace``,
then the directory is fsynced (``sync_directory=False`` skips that in
tests). A crash leaves the previous checkpoint intact, at worst with an
orphaned ``.checkpoint-*`` temp file that
:class:`~repro.engine.recovery.CheckpointManager` sweeps at startup.
Both crash windows carry :mod:`repro.testing.faults` failpoints
(``checkpoint.pre-fsync``, ``checkpoint.post-replace``).

When observability is enabled (:mod:`repro.obs`), saves and loads
record byte counters and duration histograms
(``repro_checkpoint_{save,load}_{bytes_total,seconds}``).

Every class :func:`~repro.estimators.registry.sketch_registry` accepts
at its ``"checkpoint"`` scope can be saved: the serializable
estimators, :class:`~repro.engine.shards.ShardPool` and the serving
layer's ``TenantRegistry``. Restoring yields an estimator that
continues ingesting exactly as the uninterrupted original would.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any

from repro.estimators.base import CardinalityEstimator
from repro.estimators.registry import sketch_registry
from repro.obs.metrics import get_registry
from repro.testing.faults import fire

#: Prefix of the temporary files :func:`save` writes before the atomic
#: rename. Recovery's orphan sweep keys on it
#: (:meth:`repro.engine.recovery.CheckpointManager.sweep_orphans`).
TEMP_PREFIX = ".checkpoint-"


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
    # Loaded on first use: imported with this module, the wire stack loads
    # ahead of `repro serve`'s own imports and boots it ~64 KiB larger.
    from repro.wire.frame import CODEC_RAW, envelope

    payload = estimator.to_bytes()
    head, crc = envelope(class_name, CODEC_RAW, len(payload), payload, meta)
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

    Raises ``ValueError`` for any file the frame's strict parser or the
    payload's ``from_bytes`` refuses (see :mod:`repro.wire.frame`).
    """
    obs = get_registry()
    began = time.perf_counter() if obs.enabled else 0.0
    with open(os.fspath(path), "rb") as handle:
        data = handle.read()
    from repro.wire.frame import parse

    frame = parse(data, max_raw=len(data))
    estimator = frame.restore("checkpoint")
    if obs.enabled:
        obs.counter(
            "repro_checkpoint_load_bytes_total",
            "Checkpoint bytes read by load()",
        ).inc(len(data))
        obs.histogram(
            "repro_checkpoint_load_seconds",
            "Wall time of one checkpoint load()",
        ).observe(time.perf_counter() - began)
    return estimator, frame.meta


def load(path: str | os.PathLike[str]) -> CardinalityEstimator:
    """The estimator of :func:`read`, without its metadata."""
    return read(path)[0]

