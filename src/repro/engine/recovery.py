"""Crash recovery: generation-rotated checkpoints with retries.

:mod:`repro.engine.checkpoint` makes a *single* snapshot atomic; this
module makes a *sequence* of snapshots survivable:

- :class:`CheckpointManager` owns one checkpoint directory and writes
  generation-numbered files (``ckpt-00000042.rpck``). Each file carries
  its own metadata inside its CRC'd container, so one atomic rename
  publishes a generation's state and its stream offset together, and
  the directory listing is the only index: a generation's path follows
  from its number, and no other file in the directory is read. Saves
  rotate: after each new generation the oldest ones beyond ``keep``
  are pruned. Loads fall back: :meth:`CheckpointManager.load_latest`
  walks generations newest-first and returns the first one
  :func:`repro.engine.checkpoint.read` accepts, with its metadata. A
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
failpoint (``checkpoint.pre-fsync``, ``checkpoint.post-replace``), and
the fault-injection suite (``tests/test_recovery.py``,
``tests/test_crash_recovery.py``) proves that each armed window leaves
either the previous generation or the new one loadable, with the
stream offset it was taken at.

When :mod:`repro.obs` is enabled, recovery emits the
:class:`~repro.obs.instrument.RecoveryMetrics` catalog: save/retry/
fallback/orphan/prune counters, a retained-generations gauge and
save/load duration histograms. See ``docs/recovery.md`` for the full
failure model.
"""

from __future__ import annotations

import errno
import os
import re
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, cast

from repro.engine import checkpoint
from repro.estimators.base import CardinalityEstimator
from repro.obs.metrics import get_registry

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

#: The names :func:`_generation_name` gives: numbers 1..99,999,999.
_GENERATION_RE = re.compile(r"ckpt-(?!0{8})([0-9]{8})\.rpck")
_MAX_GENERATION = 99_999_999


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

    ``meta`` is the caller-supplied metadata saved inside the
    generation's file (the pipeline stores its safe-point record counts
    there, which is what makes exact resume possible).
    """

    generation: int
    path: str
    size: int
    meta: dict[str, Any] = field(default_factory=dict)


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
        """Write the next generation with its metadata, rotate old ones.

        The number is one past the newest file in the directory. The
        file is written atomically, under the retry policy, then
        generations beyond ``keep`` are pruned.
        """
        obs = self._obs
        began = time.perf_counter() if obs is not None else 0.0
        meta = dict(meta or {})
        with self._lock:
            numbers = self._numbers()
            number = (numbers[-1] + 1) if numbers else 1
            path = self._generation_path(number)
            size = self.retry.call(
                lambda: checkpoint.save(
                    estimator, path, meta, sync_directory=self.sync_directory
                ),
                on_retry=self._count_retry,
            )
            numbers.append(number)
            pruned = numbers[: -self.keep]
            for stale in pruned:
                try:
                    os.unlink(self._generation_path(stale))
                except OSError:
                    pass
        if obs is not None:
            obs.saves.inc()
            obs.pruned.inc(len(pruned))
            obs.generations.set(len(numbers) - len(pruned))
            obs.save_seconds.observe(time.perf_counter() - began)
        return Generation(
            generation=number, path=path, size=cast(int, size), meta=meta
        )

    def _count_retry(self, attempt: int, error: BaseException) -> None:
        """Retry hook: surface retry volume in the metrics registry."""
        if self._obs is not None:
            self._obs.retries.inc()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load_latest(self) -> tuple[CardinalityEstimator, Generation]:
        """Restore the newest generation that validates; with fallback.

        Candidates are the ``ckpt-*.rpck`` files in the directory,
        newest first. Each is validated by
        :func:`repro.engine.checkpoint.read` (magic, CRC, strict
        framing, metadata); a torn or truncated one is skipped — and
        counted as a fallback — rather than trusted. The returned
        generation carries the metadata of the file it loaded. Raises
        :class:`RecoveryError` when nothing restores.
        """
        obs = self._obs
        began = time.perf_counter() if obs is not None else 0.0
        # Same lock as save(): a load racing a concurrent save must not
        # scan the directory mid-rotation and chase a just-pruned file.
        with self._lock:
            candidates = self._numbers()[::-1]
        failures: list[str] = []
        for number in candidates:
            path = self._generation_path(number)
            try:
                estimator, meta = checkpoint.read(path)
                size = os.path.getsize(path)
            except (OSError, ValueError) as error:
                failures.append(f"{os.path.basename(path)}: {error}")
                if obs is not None:
                    obs.fallbacks.inc()
                continue
            if obs is not None:
                obs.load_seconds.observe(time.perf_counter() - began)
            return estimator, Generation(number, path, size, meta)
        detail = "; ".join(failures) if failures else "no generations found"
        raise RecoveryError(
            f"no loadable checkpoint generation in {self.directory!r} "
            f"({detail})"
        )

    def generations(self) -> list[Generation]:
        """Every generation file in the directory, oldest first.

        Each carries the metadata saved in its file, or ``{}`` when the
        file does not validate.
        """
        out: list[Generation] = []
        with self._lock:
            for number in self._numbers():
                path = self._generation_path(number)
                try:
                    size = os.path.getsize(path)
                except OSError:
                    continue
                try:
                    meta = checkpoint.read(path)[1]
                except (OSError, ValueError):
                    meta = {}
                out.append(Generation(number, path, size, meta))
        return out

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
    # The directory index
    # ------------------------------------------------------------------
    def _generation_path(self, number: int) -> str:
        """Where generation ``number`` lives: always in the directory."""
        return os.path.join(self.directory, _generation_name(number))

    def _numbers(self) -> list[int]:
        """The generation numbers of the files on disk, oldest first."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            int(match.group(1))
            for match in map(_GENERATION_RE.fullmatch, names)
            if match
        )


def _generation_name(number: int) -> str:
    """The on-disk filename of generation ``number``."""
    if not 0 < number <= _MAX_GENERATION:
        raise ValueError(f"generation number out of range: {number}")
    return f"ckpt-{number:08d}.rpck"
