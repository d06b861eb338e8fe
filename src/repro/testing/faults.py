"""Deterministic fault injection: named failpoints at crash windows.

Production code marks its crash-sensitive sites with a *failpoint*::

    from repro.testing.faults import fire
    ...
    fire("checkpoint.pre-fsync")   # no-op unless a test armed it

and tests arm those sites with a :class:`FaultPlan`::

    with fault_plan() as plan:
        plan.arm("checkpoint.pre-fsync", after=1, error=OSError(...))
        ...  # the second save attempt fails at the fsync window

**Zero-cost when disarmed.** The module follows the same pattern as
:mod:`repro.obs.metrics`: the default plan is a shared
:class:`NullFaultPlan` whose :meth:`~NullFaultPlan.fire` is one empty
method call — no dict lookup, no counting, no clock. Failpoints sit on
per-chunk / per-save paths (never per item), so production overhead is
a single cheap call per crash window.

**Determinism.** A plan fires on exact hit ordinals (``after`` skips,
``times`` bounds) with no randomness and no wall clock; re-running a
test replays the identical fault schedule. The hit counts survive
disarming, so tests can assert *how often* a window was crossed even
when nothing fired.

**Crash mode.** ``arm(..., crash=True)`` terminates the whole process
with :data:`CRASH_EXIT_CODE` via ``os._exit`` — no atexit handlers, no
flushing, the closest in-process stand-in for ``kill -9`` mid-window.
The subprocess crash/resume smoke (``tools/crash_smoke.py``) arms it
through the ``REPRO_FAULTS`` environment variable (see
:func:`arm_from_env`).

The failpoint catalog is closed (:data:`FAILPOINTS`): arming an unknown
name raises immediately, so a typo cannot silently disarm a test.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterator
from contextlib import contextmanager

__all__ = [
    "CRASH_EXIT_CODE",
    "FAILPOINTS",
    "FaultPlan",
    "InjectedFault",
    "NullFaultPlan",
    "arm_from_env",
    "fault_plan",
    "fire",
    "get_plan",
    "set_plan",
]

#: Exit status used by ``crash=True`` failpoints; distinctive enough for
#: the crash/resume smoke to tell an injected crash from a real failure.
CRASH_EXIT_CODE = 70

#: Every failpoint name production code may fire. Keep in lockstep with
#: the call sites (and the catalog table in ``docs/recovery.md``).
FAILPOINTS: frozenset[str] = frozenset(
    {
        # checkpoint.save: blob written to the temp file, fsync not yet
        # issued — a crash here orphans the temp file and must leave the
        # destination (previous generation) untouched.
        "checkpoint.pre-fsync",
        # checkpoint.save: os.replace done, directory fsync pending — the
        # new file is in place but its rename may not be durable yet.
        "checkpoint.post-replace",
        # IngestPipeline.submit: about to apply one sub-plane to its
        # shard — a crash here loses the rest of the current chunk.
        "pipeline.worker-apply",
        # CheckpointManager.save: generation file durable, manifest not
        # yet republished — recovery must still find the new generation.
        "recovery.pre-manifest",
    }
)


class InjectedFault(RuntimeError):
    """The default error a fired failpoint raises.

    ``transient`` feeds :class:`repro.engine.recovery.RetryPolicy`
    classification: a transient injected fault is retried, a fatal one
    aborts immediately.
    """

    def __init__(
        self, failpoint: str, transient: bool = False
    ) -> None:
        super().__init__(f"injected fault at failpoint {failpoint!r}")
        self.failpoint = failpoint
        self.transient = transient


class _Arming:
    """One armed failpoint: fire window plus the action to take."""

    __slots__ = ("after", "times", "action")

    def __init__(
        self, after: int, times: int, action: Callable[[], None]
    ) -> None:
        self.after = after
        self.times = times
        self.action = action


class NullFaultPlan:
    """The disarmed default: firing any failpoint is a no-op.

    Mirrors :class:`repro.obs.metrics.NullRegistry` — a shared
    singleton whose methods are empty, so production code pays one
    method call per crash window and nothing else.
    """

    __slots__ = ()

    #: Instrumented sites may branch on this before any bookkeeping.
    armed: bool = False

    def fire(self, name: str) -> None:
        """No-op."""

    def hits(self, name: str) -> int:
        """Always 0 — the null plan counts nothing."""
        return 0


class FaultPlan:
    """A per-test fault schedule over the :data:`FAILPOINTS` catalog.

    Install with :func:`set_plan` or, preferably, the
    :func:`fault_plan` context manager (which restores the previous
    plan on exit). Thread-safe: failpoints fire from every thread
    that submits into a pipeline.
    """

    armed = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._armed: dict[str, _Arming] = {}  # guarded-by: _lock
        self._hits: dict[str, int] = {}  # guarded-by: _lock

    def arm(
        self,
        name: str,
        *,
        after: int = 0,
        times: int = 1,
        error: BaseException | None = None,
        transient: bool = False,
        crash: bool = False,
        action: Callable[[], None] | None = None,
    ) -> "FaultPlan":
        """Arm one failpoint; returns ``self`` for chaining.

        Parameters
        ----------
        name:
            A member of :data:`FAILPOINTS` (unknown names raise).
        after:
            Skip this many hits before the first firing (``after=2``
            fires on the third crossing of the window).
        times:
            Fire at most this many times, then stay silent (hits keep
            counting).
        error:
            Exception instance to raise on firing; defaults to an
            :class:`InjectedFault` carrying ``transient``.
        transient:
            Mark the default :class:`InjectedFault` as retryable.
        crash:
            Instead of raising, hard-kill the process with
            ``os._exit(CRASH_EXIT_CODE)`` — simulates power loss inside
            the window (subprocess tests only).
        action:
            Escape hatch: an arbitrary callable to run on firing
            (mutually exclusive with ``error``/``crash``).
        """
        if name not in FAILPOINTS:
            raise ValueError(
                f"unknown failpoint {name!r}; catalog: "
                f"{sorted(FAILPOINTS)}"
            )
        if after < 0 or times < 1:
            raise ValueError(
                f"need after >= 0 and times >= 1, got {after=} {times=}"
            )
        chosen = sum(x is not None for x in (error, action)) + bool(crash)
        if chosen > 1:
            raise ValueError("error=, crash= and action= are exclusive")
        if crash:
            act: Callable[[], None] = _crash
        elif action is not None:
            act = action
        else:
            exc = error if error is not None else InjectedFault(
                name, transient=transient
            )
            act = _Raiser(exc)
        with self._lock:
            self._armed[name] = _Arming(after, times, act)
        return self

    def disarm(self, name: str) -> None:
        """Remove one arming (hit counts are preserved)."""
        with self._lock:
            self._armed.pop(name, None)

    def fire(self, name: str) -> None:
        """Cross the named window: count the hit, act if armed.

        Called by production code. Unknown names raise even when
        nothing is armed for them — a drifted call site is a bug.
        """
        if name not in FAILPOINTS:
            raise ValueError(f"unknown failpoint {name!r}")
        with self._lock:
            hit = self._hits.get(name, 0)
            self._hits[name] = hit + 1
            arming = self._armed.get(name)
            if arming is None:
                return
            ordinal = hit - arming.after
            due = 0 <= ordinal < arming.times
        if due:
            arming.action()

    def hits(self, name: str) -> int:
        """How many times the named window was crossed so far."""
        with self._lock:
            return self._hits.get(name, 0)


def _crash() -> None:
    """Terminate the process without any cleanup (simulated power cut)."""
    os._exit(CRASH_EXIT_CODE)


class _Raiser:
    """Action that raises a fixed exception instance on every firing."""

    __slots__ = ("_exc",)

    def __init__(self, exc: BaseException) -> None:
        self._exc = exc

    def __call__(self) -> None:
        """Raise the armed exception."""
        raise self._exc


_DEFAULT_PLAN: NullFaultPlan | FaultPlan = NullFaultPlan()
_DEFAULT_LOCK = threading.Lock()


def get_plan() -> NullFaultPlan | FaultPlan:
    """The process-wide fault plan (the no-op null plan by default)."""
    return _DEFAULT_PLAN


def set_plan(plan: NullFaultPlan | FaultPlan) -> NullFaultPlan | FaultPlan:
    """Install ``plan`` process-wide; returns the previous plan."""
    global _DEFAULT_PLAN
    if not isinstance(plan, (NullFaultPlan, FaultPlan)):
        raise TypeError(
            f"expected a FaultPlan/NullFaultPlan, got {type(plan).__name__}"
        )
    with _DEFAULT_LOCK:
        previous = _DEFAULT_PLAN
        _DEFAULT_PLAN = plan
    return previous


def fire(name: str) -> None:
    """Cross the named failpoint (production call site).

    With the default :class:`NullFaultPlan` this is a single empty
    method call; with an armed :class:`FaultPlan` it counts the hit
    and runs the armed action when due.
    """
    _DEFAULT_PLAN.fire(name)


@contextmanager
def fault_plan() -> Iterator[FaultPlan]:
    """Install a fresh :class:`FaultPlan` for the ``with`` body.

    The previous plan (normally the null plan) is restored on exit, so
    a failing test cannot leave the process armed.
    """
    plan = FaultPlan()
    previous = set_plan(plan)
    try:
        yield plan
    finally:
        set_plan(previous)


def arm_from_env(spec: str | None) -> FaultPlan | None:
    """Arm failpoints from an environment-style spec; None if empty.

    The spec is a comma-separated list of ``name:mode@ordinal`` items::

        REPRO_FAULTS="checkpoint.pre-fsync:crash@2"
        REPRO_FAULTS="pipeline.worker-apply:error@1,recovery.pre-manifest:transient@1"

    ``mode`` is ``crash`` (hard ``os._exit``), ``error`` (fatal
    :class:`InjectedFault`) or ``transient`` (retryable fault);
    ``@ordinal`` is the 1-based hit the fault fires on (``@2`` = second
    crossing). Installs and returns the plan — used by ``repro engine``
    so the crash/resume smoke can arm a subprocess.
    """
    if not spec:
        return None
    plan = FaultPlan()
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            name, rest = item.split(":", 1)
            mode, _, ordinal_text = rest.partition("@")
            ordinal = int(ordinal_text) if ordinal_text else 1
        except ValueError as error:
            raise ValueError(
                f"bad REPRO_FAULTS item {item!r} "
                "(want name:mode@ordinal)"
            ) from error
        if ordinal < 1:
            raise ValueError(f"ordinal must be >= 1 in {item!r}")
        if mode == "crash":
            plan.arm(name, after=ordinal - 1, crash=True)
        elif mode == "error":
            plan.arm(name, after=ordinal - 1)
        elif mode == "transient":
            plan.arm(name, after=ordinal - 1, transient=True)
        else:
            raise ValueError(
                f"bad REPRO_FAULTS mode {mode!r} in {item!r} "
                "(want crash|error|transient)"
            )
    set_plan(plan)
    return plan
