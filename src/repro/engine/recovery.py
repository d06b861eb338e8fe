"""Crash recovery: generation-rotated checkpoints with retries.

:mod:`repro.engine.checkpoint` makes a *single* snapshot atomic; this
module makes a *sequence* of snapshots survivable:

- :class:`CheckpointManager` owns one checkpoint directory and writes
  generation-numbered files (``ckpt-00000042.rpck``) plus a CRC'd JSON
  ``MANIFEST.json`` listing every retained generation and its metadata.
  A generation's path always follows from its number; a manifest that
  is torn or malformed in any way is ignored whole. Saves rotate: after
  each new generation the oldest ones beyond ``keep`` are pruned. Loads
  fall back: :meth:`CheckpointManager.load_latest`
  walks generations newest-first — across the union of the manifest and
  a directory scan, so a crash *between* publishing the generation file
  and republishing the manifest still recovers the newest state — and
  returns the first one :func:`repro.engine.checkpoint.load` accepts. A
  torn or truncated latest generation therefore degrades to the
  previous good one instead of an unrecoverable error.
- :class:`RetryPolicy` wraps checkpoint I/O in bounded retries with
  exponential backoff and *deterministic* jitter (seeded, replayable —
  no global RNG). Errors are classified transient vs fatal:
  interrupted/temporarily-unavailable ``OSError`` values retry,
  corruption and programming errors abort immediately.
- A startup (and on-demand) **orphan sweep** removes stale
  ``.checkpoint-*`` temp files left by crashes between ``mkstemp`` and
  ``os.replace``. A grace period keyed on file mtime protects the live
  temp files of concurrent savers in the same directory.

Every crash window is marked with a :mod:`repro.testing.faults`
failpoint (``checkpoint.pre-fsync``, ``checkpoint.post-replace``,
``recovery.pre-manifest``), and the fault-injection suite
(``tests/test_recovery.py``, ``tests/test_crash_recovery.py``) proves
that each armed window either leaves the previous generation loadable
or is healed by manifest/scan fallback.

When :mod:`repro.obs` is enabled, recovery emits the
:class:`~repro.obs.instrument.RecoveryMetrics` catalog: save/retry/
fallback/orphan/prune counters, a retained-generations gauge and
save/load duration histograms. See ``docs/recovery.md`` for the full
failure model.
"""

from __future__ import annotations

import errno
import json
import os
import re
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.engine import checkpoint
from repro.estimators.base import CardinalityEstimator
from repro.obs.metrics import get_registry
from repro.testing.faults import fire

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.instrument import RecoveryMetrics

__all__ = [
    "CheckpointManager",
    "Generation",
    "RecoveryError",
    "RetryPolicy",
    "TRANSIENT_ERRNOS",
]

#: ``OSError`` errnos worth retrying: the condition is expected to clear
#: on its own. Everything else (ENOSPC, EACCES, EROFS, EIO, ...) aborts
#: immediately — retrying cannot help and only delays the failure.
TRANSIENT_ERRNOS: frozenset[int] = frozenset(
    {
        errno.EAGAIN,
        errno.EWOULDBLOCK,
        errno.EINTR,
        errno.EBUSY,
        errno.ETIMEDOUT,
    }
)

_GENERATION_RE = re.compile(r"^ckpt-(\d{8})\.rpck$")
_MAX_GENERATION = 99_999_999
_MANIFEST_NAME = "MANIFEST.json"
_MANIFEST_VERSION = 1


class RecoveryError(RuntimeError):
    """No generation in the checkpoint directory could be restored."""


class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first (>= 1); transient failures
        beyond this re-raise.
    base_delay / multiplier / max_delay:
        Backoff schedule in seconds: attempt ``k`` (0-based) waits
        ``min(max_delay, base_delay * multiplier**k)`` before retrying.
    jitter:
        Fractional jitter amplitude in ``[0, 1)``: each delay is scaled
        by ``1 + jitter * u`` with ``u`` a *deterministic* value in
        ``[-1, 1]`` derived from ``seed`` and the attempt index — two
        runs with the same seed replay identical delays (no global RNG,
        per the repo's determinism rules).
    seed:
        Jitter seed; give concurrent savers distinct seeds to de-sync
        their retry storms.
    sleep:
        Injection point for tests (defaults to :func:`time.sleep`).
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay: float = 0.005,
        multiplier: float = 2.0,
        max_delay: float = 0.5,
        jitter: float = 0.25,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.multiplier = float(multiplier)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self._sleep = sleep

    def is_transient(self, error: BaseException) -> bool:
        """Classify an error: True = retry, False = abort immediately.

        :class:`~repro.testing.faults.InjectedFault` carries its own
        ``transient`` flag; an ``OSError`` is transient iff its errno is
        in :data:`TRANSIENT_ERRNOS`; everything else (corruption
        ``ValueError``, type errors, ...) is fatal.
        """
        transient = getattr(error, "transient", None)
        if transient is not None:
            return bool(transient)
        if isinstance(error, OSError):
            return error.errno in TRANSIENT_ERRNOS
        return False

    def delay(self, attempt: int) -> float:
        """The deterministic backoff delay after 0-based ``attempt``."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        raw = min(
            self.max_delay, self.base_delay * self.multiplier ** attempt
        )
        if not self.jitter:
            return raw
        digest = zlib.crc32(f"{self.seed}:{attempt}".encode("ascii"))
        unit = digest / 0xFFFFFFFF * 2.0 - 1.0  # deterministic in [-1, 1]
        return raw * (1.0 + self.jitter * unit)

    def call(
        self,
        operation: Callable[[], object],
        on_retry: Callable[[int, BaseException], None] | None = None,
    ) -> object:
        """Run ``operation`` under this policy; returns its result.

        Fatal errors propagate immediately; transient ones are retried
        (after :meth:`delay`) up to ``max_attempts`` total attempts,
        then the last error propagates. ``on_retry(attempt, error)`` is
        called before each sleep — the manager uses it to count retries
        into :mod:`repro.obs`.
        """
        attempt = 0
        while True:
            try:
                return operation()
            except BaseException as error:
                if not self.is_transient(error):
                    raise
                attempt += 1
                if attempt >= self.max_attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                self._sleep(self.delay(attempt - 1))


@dataclass(frozen=True)
class Generation:
    """One retained checkpoint generation, as recovery sees it.

    ``meta`` is the caller-supplied metadata recorded at save time (the
    pipeline stores its safe-point record counts there, which is what
    makes exact resume possible); generations recovered from a
    directory scan after a manifest-publication crash carry ``meta={}``
    and ``manifested=False``.
    """

    generation: int
    path: str
    size: int
    meta: dict[str, Any] = field(default_factory=dict)
    manifested: bool = True


class CheckpointManager:
    """Rotating, self-healing checkpoints over one directory.

    Parameters
    ----------
    directory:
        The checkpoint directory (created if missing). One manager —
        or one engine process — per directory is the supported regime;
        the temp-file scheme keeps even misconfigured concurrent savers
        from corrupting each other, but rotation bookkeeping is only
        synchronized in-process (an internal lock makes one manager
        thread-safe).
    keep:
        Retained generations (>= 1); older ones are pruned after each
        successful save.
    retry:
        :class:`RetryPolicy` applied to checkpoint save I/O (a default
        policy if omitted).
    orphan_grace:
        Age in seconds a ``.checkpoint-*`` temp file must reach before
        the sweep deletes it — protects temp files a concurrent saver
        is still writing. The startup sweep runs automatically.
    sync_directory:
        Forwarded to :func:`repro.engine.checkpoint.save`; disable only
        in tests.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        keep: int = 3,
        retry: RetryPolicy | None = None,
        orphan_grace: float = 60.0,
        sync_directory: bool = True,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        if orphan_grace < 0:
            raise ValueError(f"orphan_grace must be >= 0, got {orphan_grace}")
        self.directory = os.fspath(directory)
        self.keep = int(keep)
        self.retry = retry if retry is not None else RetryPolicy()
        self.orphan_grace = float(orphan_grace)
        self.sync_directory = bool(sync_directory)
        self._lock = threading.Lock()
        registry = get_registry()
        self._obs: "RecoveryMetrics | None" = None
        if registry.enabled:
            from repro.obs.instrument import RecoveryMetrics

            self._obs = RecoveryMetrics(registry)
        os.makedirs(self.directory, exist_ok=True)
        self.sweep_orphans()

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def save(
        self,
        estimator: CardinalityEstimator,
        meta: dict[str, Any] | None = None,
    ) -> Generation:
        """Write the next generation, publish it, rotate old ones.

        The generation file is written first (atomically, under the
        retry policy), then the manifest is republished to include it,
        then generations beyond ``keep`` are pruned. A crash after the
        file is durable but before the manifest lands is healed at load
        time by the directory-scan fallback (the ``recovery.pre-manifest``
        failpoint sits exactly in that window).
        """
        obs = self._obs
        began = time.perf_counter() if obs is not None else 0.0
        meta = dict(meta or {})
        with self._lock:
            entries = self._merged_generations()
            number = (entries[-1].generation + 1) if entries else 1
            path = self._generation_path(number)
            self.retry.call(
                lambda: checkpoint.save(
                    estimator, path, sync_directory=self.sync_directory
                ),
                on_retry=self._count_retry,
            )
            fire("recovery.pre-manifest")
            generation = Generation(
                generation=number,
                path=path,
                size=os.path.getsize(path),
                meta=meta,
            )
            retained, pruned = self._rotate(entries + [generation])
            self._write_manifest(retained)
            for stale in pruned:
                try:
                    os.unlink(stale.path)
                except OSError:
                    pass
        if obs is not None:
            obs.saves.inc()
            obs.pruned.inc(len(pruned))
            obs.generations.set(len(retained))
            obs.save_seconds.observe(time.perf_counter() - began)
        return generation

    def _count_retry(self, attempt: int, error: BaseException) -> None:
        """Retry hook: surface retry volume in the metrics registry."""
        if self._obs is not None:
            self._obs.retries.inc()

    def _rotate(
        self, entries: list[Generation]
    ) -> tuple[list[Generation], list[Generation]]:
        """Split generations into (retained newest ``keep``, pruned)."""
        entries = sorted(entries, key=lambda g: g.generation)
        if len(entries) <= self.keep:
            return entries, []
        return entries[-self.keep:], entries[: -self.keep]

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load_latest(self) -> tuple[CardinalityEstimator, Generation]:
        """Restore the newest generation that validates; with fallback.

        Candidates are the union of manifest entries and on-disk
        ``ckpt-*.rpck`` files, newest generation first. Each candidate
        is validated by :func:`repro.engine.checkpoint.load` (magic,
        CRC, strict framing); a torn or truncated one is skipped — and
        counted as a fallback — rather than trusted. Raises
        :class:`RecoveryError` when nothing restores.
        """
        obs = self._obs
        began = time.perf_counter() if obs is not None else 0.0
        # Same lock as save(): a load racing a concurrent save must not
        # scan the directory mid-rotation and chase a just-pruned file.
        with self._lock:
            candidates = list(reversed(self._merged_generations()))
        failures: list[str] = []
        for candidate in candidates:
            try:
                estimator = checkpoint.load(candidate.path)
            except (OSError, ValueError) as error:
                failures.append(f"{os.path.basename(candidate.path)}: {error}")
                if obs is not None:
                    obs.fallbacks.inc()
                continue
            if obs is not None:
                obs.load_seconds.observe(time.perf_counter() - began)
            return estimator, candidate
        detail = "; ".join(failures) if failures else "no generations found"
        raise RecoveryError(
            f"no loadable checkpoint generation in {self.directory!r} "
            f"({detail})"
        )

    def generations(self) -> list[Generation]:
        """Every known generation, oldest first (manifest ∪ disk scan)."""
        with self._lock:
            return self._merged_generations()

    # ------------------------------------------------------------------
    # Hygiene
    # ------------------------------------------------------------------
    def sweep_orphans(self, grace: float | None = None) -> int:
        """Delete stale ``.checkpoint-*`` temp files; returns the count.

        A crash between ``mkstemp`` and ``os.replace`` leaks its temp
        file forever — nothing else ever references it. Only files older
        than ``grace`` seconds (default: the manager's ``orphan_grace``)
        are removed, so a *live* concurrent saver's temp file survives
        the sweep. Runs automatically at manager construction.
        """
        grace = self.orphan_grace if grace is None else float(grace)
        # Wall clock is inherently part of the staleness contract here
        # (mtime-based aging); it never feeds an estimate or a metric
        # value.  # analysis: allow(determinism.wallclock)
        now = time.time()
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        for name in names:
            if not name.startswith(checkpoint.TEMP_PREFIX):
                continue
            path = os.path.join(self.directory, name)
            try:
                age = now - os.path.getmtime(path)
                if age >= grace:
                    os.unlink(path)
                    removed += 1
            except OSError:
                continue  # vanished or unreadable — not ours to force
        if removed and self._obs is not None:
            self._obs.orphans_removed.inc(removed)
        return removed

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        """Absolute path of the CRC'd manifest file."""
        return os.path.join(self.directory, _MANIFEST_NAME)

    def _generation_path(self, number: int) -> str:
        """Where generation ``number`` lives: always in the directory."""
        return os.path.join(self.directory, _generation_name(number))

    def _merged_generations(self) -> list[Generation]:
        """Manifest entries ∪ on-disk generation files, oldest first.

        The manifest is authoritative for metadata; the disk scan heals
        the two stale-manifest cases (a generation published but not
        yet manifested, and a manifest entry whose file was pruned by a
        crashed rotation). A torn or malformed manifest degrades to
        scan-only.
        """
        manifest = {g.generation: g for g in self._read_manifest()}
        merged: dict[int, Generation] = {}
        try:
            names = os.listdir(self.directory)
        except OSError:
            names = []
        for name in names:
            match = _GENERATION_RE.match(name)
            if not match:
                continue
            number = int(match.group(1))
            path = os.path.join(self.directory, name)
            known = manifest.get(number)
            if known is not None:
                merged[number] = known
            else:
                try:
                    size = os.path.getsize(path)
                except OSError:
                    continue
                merged[number] = Generation(
                    generation=number,
                    path=path,
                    size=size,
                    meta={},
                    manifested=False,
                )
        return [merged[number] for number in sorted(merged)]

    def _read_manifest(self) -> list[Generation]:
        """Parse and check the manifest; [] when absent, torn or malformed.

        The manifest carries metadata only. Each entry must be an object
        with an integer ``generation`` in range, the ``file`` name that
        number gives, an integer ``bytes`` >= 0 and an object ``meta``;
        the path comes from the number, never from the file. Any other
        entry, like a CRC mismatch, distrusts the whole file.
        """
        try:
            with open(self.manifest_path, "rb") as handle:
                document = json.loads(handle.read().decode("utf-8"))
        except (OSError, ValueError):
            return []
        if not isinstance(document, dict):
            return []
        body = document.get("body")
        crc = document.get("crc")
        if body is None or crc != zlib.crc32(_canonical_json(body)):
            return []  # torn manifest: fall back to the directory scan
        if (
            not isinstance(body, dict)
            or not _is_int(body.get("version"))
            or body["version"] != _MANIFEST_VERSION
            or not isinstance(body.get("generations"), list)
        ):
            return []
        out: list[Generation] = []
        for entry in body["generations"]:
            number = entry.get("generation") if isinstance(entry, dict) else None
            if not (
                _is_int(number)
                and 0 < number <= _MAX_GENERATION
                and entry.get("file") == _generation_name(number)
                and _is_int(entry.get("bytes"))
                and entry["bytes"] >= 0
                and isinstance(entry.get("meta"), dict)
            ):
                return []  # malformed: distrust the whole file
            out.append(
                Generation(
                    generation=number,
                    path=self._generation_path(number),
                    size=entry["bytes"],
                    meta=entry["meta"],
                )
            )
        return out

    def _write_manifest(self, entries: list[Generation]) -> None:
        """Atomically republish the manifest for ``entries``."""
        body = {
            "version": _MANIFEST_VERSION,
            "generations": [
                {
                    "generation": g.generation,
                    "file": os.path.basename(g.path),
                    "bytes": g.size,
                    "meta": g.meta,
                }
                for g in sorted(entries, key=lambda g: g.generation)
            ],
        }
        document = {"crc": zlib.crc32(_canonical_json(body)), "body": body}
        blob = json.dumps(document, sort_keys=True).encode("utf-8")
        descriptor, temp_path = tempfile.mkstemp(
            prefix=".manifest-", dir=self.directory
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.manifest_path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise


def _generation_name(number: int) -> str:
    """The on-disk filename of generation ``number``."""
    if not 0 < number <= _MAX_GENERATION:
        raise ValueError(f"generation number out of range: {number}")
    return f"ckpt-{number:08d}.rpck"


def _is_int(value: object) -> bool:
    """Whether a decoded JSON value is an integer (``true`` is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _canonical_json(value: object) -> bytes:
    """Canonical JSON bytes — the manifest CRC is computed over these."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
