"""Span recording and self time: nesting, other threads, generators."""

import asyncio
import threading
import time

import numpy as np

import tracing
from tracing import (COUNT, CPU_END, CPU_START, END, ID, PARENT, START, TAG,
                     Recorder, Spans)


def spin(seconds: float) -> None:
    """Busy for ``seconds`` of wall and CPU time."""
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        pass


def loaded(rec: Recorder) -> Spans:
    table = np.array(rec.spans, dtype=np.int64).reshape(-1, len(tracing.COLUMNS))
    return Spans([(table, list(rec.names))])


def test_self_time_subtracts_nested_children():
    rec = Recorder()
    inner = rec.wrap("inner", lambda: spin(0.02))

    def outer_body():
        spin(0.01)
        inner()
        inner()

    outer = rec.wrap("outer", outer_body)
    outer()
    spans = loaded(rec)
    (o,) = np.flatnonzero(spans.select("outer"))
    kids = np.flatnonzero(spans.select("inner"))
    assert len(kids) == 2
    assert (spans.table[kids, PARENT] == spans.table[o, ID]).all()
    wall = spans.table[:, END] - spans.table[:, START]
    cpu = spans.table[:, CPU_END] - spans.table[:, CPU_START]
    assert spans.self_wall[o] == wall[o] - wall[kids].sum()
    assert spans.self_cpu[o] == cpu[o] - cpu[kids].sum()
    assert 0 < spans.self_cpu[o] < cpu[kids].sum()
    assert (spans.self_wall[kids] == wall[kids]).all()


def test_spans_on_other_threads_are_not_children():
    rec = Recorder()
    work = rec.wrap("work", lambda: spin(0.02))

    def waiting_parent():
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(5)
        assert not thread.is_alive()

    rec.wrap("parent", waiting_parent)()
    spans = loaded(rec)
    (p,) = np.flatnonzero(spans.select("parent"))
    (w,) = np.flatnonzero(spans.select("work"))
    assert spans.table[w, PARENT] == -1
    # The other thread's work overlaps the parent but is not subtracted:
    # the parent's wall self time is its whole duration.
    assert spans.self_wall[p] == spans.table[p, END] - spans.table[p, START]
    assert spans.self_wall[p] >= spans.self_wall[w]
    # Its CPU time is only its own (waiting in join costs none).
    assert spans.self_cpu[p] < 0.01e9


def test_generator_spans_exclude_the_consumers_work():
    rec = Recorder()
    handle = rec.wrap("handle", lambda item: spin(0.01))

    def produce(items):
        for item in items:
            spin(0.002)
            yield item

    feed = rec.wrap_generator("feed", produce, count=lambda a, k, r: len(a[0]))
    for item in feed([1, 2, 3]):
        handle(item)
    spans = loaded(rec)
    feeds = np.flatnonzero(spans.select("feed"))
    handles = np.flatnonzero(spans.select("handle"))
    assert len(feeds) == 4  # three items, then the exhausting resumption
    assert (spans.table[handles, PARENT] == -1).all()
    assert spans.table[feeds, COUNT].tolist() == [3, 0, 0, 0]
    assert (spans.self_cpu[feeds] < 0.008e9).all()


def test_coroutine_spans_are_detached():
    rec = Recorder()

    async def slow(value):
        await asyncio.sleep(0.01)
        return value

    wrapped = rec.wrap_async("slow", slow, tag=lambda a, k, r: a[0])
    other = rec.wrap("other", lambda: None)

    async def main():
        task = asyncio.ensure_future(wrapped(7))
        await asyncio.sleep(0)
        other()  # runs while `slow` waits, on the same thread
        return await task

    assert asyncio.run(main()) == 7
    spans = loaded(rec)
    (s,) = np.flatnonzero(spans.select("slow"))
    (o,) = np.flatnonzero(spans.select("other"))
    assert spans.table[s, PARENT] == tracing.DETACHED
    assert spans.table[s, TAG] == 7
    assert spans.table[o, PARENT] == -1


def test_failing_label_is_recorded_without_disturbing_the_call():
    rec = Recorder()
    wrapped = rec.wrap("f", lambda: 5, count=lambda a, k, r: 1 / 0)
    assert wrapped() == 5
    assert rec.spans[0][COUNT] == -1


def test_dump_and_load_merges_processes(tmp_path):
    first, second = Recorder(), Recorder()
    first.wrap("a", lambda: None)()
    second.wrap("b", lambda: None)()
    second.wrap("a", lambda: None)()
    first.dump(str(tmp_path / "one.npz"), {"x": 1})
    second.dump(str(tmp_path / "two.npz"))
    spans = Spans.load([str(tmp_path / "one.npz"), str(tmp_path / "two.npz")])
    assert spans.select("a").sum() == 2 and spans.select("b").sum() == 1
    assert len(set(spans.table[:, ID].tolist())) == 3
    assert (tmp_path / "one.npz.json").read_text() == '{"x": 1}'
