"""Span recording around layer entry points, and self-time analysis.

A :class:`Recorder` keeps spans in memory, one tuple each, in the
column order of :data:`COLUMNS`: wall-clock start and end, the calling
thread's CPU clock at both ends, the thread, the parent span, a
``count`` of the work the call did (keys, bytes, indices) and a
``tag`` (a verb, a Step-1 pass count). ``parent`` is the innermost
span still open on the same thread when the span started (``-1`` for
none); spans of other threads are never parents. Coroutine spans are
*detached* (``parent = -2``, no CPU clock): they are timed from call to
completion but never pushed on the thread's stack, because other
callbacks run on the same thread while they wait.

Wall time is what a caller waits, including time spent waiting for the
interpreter lock or a full queue; thread CPU time is the work the call
did. A layer's self time is its span's time minus the time its child
spans cover (:func:`self_times`). A count or tag callback that fails
records -1 and never disturbs the traced call. Spans are written out
with :meth:`Recorder.dump` when the traced process ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable

import numpy as np

DETACHED = -2
COLUMNS = ("id", "name", "start", "end", "cpu_start", "cpu_end", "thread",
           "parent", "count", "tag")
ID, NAME, START, END, CPU_START, CPU_END, THREAD, PARENT, COUNT, TAG = range(10)
_now = time.perf_counter_ns
_cpu = time.thread_time_ns

Counter = Callable[[tuple, dict, Any], int]


def _label(callback: Counter | None, args: tuple, kwargs: dict,
           result: Any) -> int:
    if callback is None:
        return 0
    try:
        return int(callback(args, kwargs, result))
    except Exception:
        return -1


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every span but keep the names the wrappers refer to."""
        self.spans: list[tuple] = []
        self._next = itertools.count()
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        return stack

    def wrap(self, name: str, func: Callable, count: Counter | None = None,
             tag: Counter | None = None) -> Callable:
        """A synchronous function timed as one nested span per call."""
        name_id = self.name_id(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            span = next(self._next)
            stack.append(span)
            cpu_start = _cpu()
            start = _now()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = _now()
                cpu_end = _cpu()
                stack.pop()
                self.spans.append((
                    span, name_id, start, end, cpu_start, cpu_end,
                    threading.get_ident(), parent,
                    _label(count, args, kwargs, result),
                    _label(tag, args, kwargs, result),
                ))

        return traced

    def wrap_async(self, name: str, func: Callable,
                   tag: Counter | None = None) -> Callable:
        """A coroutine function timed as a detached span per call."""
        name_id = self.name_id(name)

        @functools.wraps(func)
        async def traced(*args, **kwargs):
            start = _now()
            try:
                return await func(*args, **kwargs)
            finally:
                self.spans.append((
                    next(self._next), name_id, start, _now(), 0, 0,
                    threading.get_ident(), DETACHED, 0,
                    _label(tag, args, kwargs, None),
                ))

        return traced

    def wrap_generator(self, name: str, func: Callable,
                       count: Counter | None = None) -> Callable:
        """A generator function timed as one nested span per resumption.

        The consumer's own work between resumptions is not part of any
        of these spans. ``count`` is billed to the first resumption.
        """
        name_id = self.name_id(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            billed = _label(count, args, kwargs, None)
            try:
                while True:
                    stack = self._stack()
                    parent = stack[-1] if stack else -1
                    span = next(self._next)
                    stack.append(span)
                    cpu_start = _cpu()
                    start = _now()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = _now()
                        cpu_end = _cpu()
                        stack.pop()
                        self.spans.append((
                            span, name_id, start, end, cpu_start, cpu_end,
                            threading.get_ident(), parent, billed, 0,
                        ))
                        billed = 0
                    yield item
            finally:
                inner.close()

        return traced

    def dump(self, path: str, facts: dict | None = None) -> None:
        """Write the spans (``.npz``) and any facts (``.json`` beside it)."""
        table = np.array(self.spans, dtype=np.int64).reshape(-1, len(COLUMNS))
        np.savez(path, spans=table, names=np.array(self.names, dtype=str))
        if facts is not None:
            with open(path + ".json", "w") as handle:
                json.dump(facts, handle)


class Spans:
    """Loaded spans of one or more processes, with per-name views.

    ``self_wall`` and ``self_cpu`` hold each span's self time (ns) on
    the wall clock and on its thread's CPU clock.
    """

    def __init__(self, tables: list[tuple[np.ndarray, list[str]]]) -> None:
        # Span ids are per process: offset them so parents stay unique.
        names: list[str] = []
        parts = []
        offset = 0
        for table, local_names in tables:
            if not len(table):
                continue
            remap = np.array(
                [_index(names, name) for name in local_names], dtype=np.int64
            )
            table = table.copy()
            table[:, NAME] = remap[table[:, NAME]]
            parent = table[:, PARENT]
            table[:, ID] += offset
            table[:, PARENT] = np.where(parent >= 0, parent + offset, parent)
            offset = int(table[:, ID].max()) + 1
            parts.append(table)
        self.names = names
        self.table = (
            np.concatenate(parts) if parts
            else np.zeros((0, len(COLUMNS)), np.int64)
        )
        self.self_wall = self_times(self.table, START, END)
        self.self_cpu = self_times(self.table, CPU_START, CPU_END)

    @classmethod
    def load(cls, paths: list[str]) -> "Spans":
        tables = []
        for path in paths:
            with np.load(path) as data:
                tables.append((data["spans"], [str(n) for n in data["names"]]))
        return cls(tables)

    def select(self, name: str, tag: int | None = None) -> np.ndarray:
        """Row mask of the spans named ``name`` (and tagged ``tag``)."""
        if name not in self.names:
            return np.zeros(len(self.table), dtype=bool)
        mask = self.table[:, NAME] == self.names.index(name)
        if tag is not None:
            mask &= self.table[:, TAG] == tag
        return mask

    def wall(self, mask: np.ndarray) -> np.ndarray:
        return self.table[mask, END] - self.table[mask, START]

    def cpu(self, mask: np.ndarray) -> np.ndarray:
        return self.table[mask, CPU_END] - self.table[mask, CPU_START]


def _index(names: list[str], name: str) -> int:
    if name not in names:
        names.append(name)
    return names.index(name)


def self_times(table: np.ndarray, begin: int = START,
               finish: int = END) -> np.ndarray:
    """Each span's time minus the time of its child spans (ns).

    ``begin``/``finish`` pick the clock columns (wall or thread CPU).
    Children of a span ran on its thread while it was open (the parent
    comes from that thread's own stack), so they nest inside it and do
    not overlap each other: subtracting their times leaves the time the
    span spent in its own code.
    """
    durations = table[:, finish] - table[:, begin]
    own = durations.copy()
    if not len(table):
        return own
    child = table[:, PARENT] >= 0
    order = np.argsort(table[:, ID])
    positions = np.searchsorted(table[order, ID], table[child, PARENT])
    positions = np.minimum(positions, len(order) - 1)
    found = table[order[positions], ID] == table[child, PARENT]
    parents = order[positions[found]]
    np.subtract.at(own, parents, durations[child][found])
    return own
