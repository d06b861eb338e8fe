"""Single-threaded load generator over at most two server connections.

One thread multiplexes the connections with ``select`` (microsecond
timeouts, unlike epoll's millisecond ones). Requests are queued either
from an open-loop schedule, each at its due time whatever the server is
doing, or by callbacks that react to responses (a closed loop). Every
connection is a strict FIFO, so a response is matched to the oldest
request still pending on its connection.

Each request records three times on one clock (``time.perf_counter``):
``due`` (when the schedule wanted it sent; for a closed loop, when it
was queued), ``sent`` (when the generator handed its first byte to the
socket) and ``done`` (when its response was parsed). Open-loop latency
is ``done - due``, so a stall of the generator or of the server counts
against every request it delays; ``sent - due`` is the generator's own
lateness, reported beside the latencies.
"""

from __future__ import annotations

import gc
import select
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from traffic import ResponseParser

clock = time.perf_counter


@dataclass
class Sent:
    """One request on the wire and, once answered, its response."""

    verb: int
    due: float
    tenant: str | None = None
    keys: int = 0
    frame: int = -1
    sent: float = 0.0
    done: float = 0.0
    response_verb: int = 0
    payload: bytes = b""


class Connection:
    """A non-blocking client socket with an output queue and FIFO matching."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self._out: deque[memoryview] = deque()
        self._unsent: deque[Sent] = deque()  # queued, first byte not yet out
        self.pending: deque[Sent] = deque()
        self._parser = ResponseParser()

    def queue(self, frame: bytes, request: Sent) -> None:
        self._out.append(memoryview(frame))
        self._unsent.append(request)
        self.pending.append(request)

    @property
    def wants_write(self) -> bool:
        return bool(self._out)

    def flush(self) -> None:
        """Send as much queued output as the socket takes right now."""
        while self._out:
            head = self._out[0]
            began = clock()
            try:
                written = self.sock.send(head)
            except BlockingIOError:
                return
            if self._unsent[0].sent == 0.0:
                self._unsent[0].sent = began
            if written == len(head):
                self._out.popleft()
                self._unsent.popleft()
            else:
                self._out[0] = head[written:]
                return

    def receive(self) -> list[Sent]:
        """Read what is available; return the requests it completed."""
        completed = []
        while True:
            try:
                data = self.sock.recv(1 << 20)
            except BlockingIOError:
                return completed
            if not data:
                raise ConnectionError("server closed the connection")
            now = clock()
            for verb, payload in self._parser.feed(data):
                if not self.pending:
                    raise ConnectionError("response without a request")
                request = self.pending.popleft()
                request.done = now
                request.response_verb = verb
                request.payload = payload
                completed.append(request)

    def close(self) -> None:
        self.sock.close()


class LoadLoop:
    """Runs requests over a set of connections until all are answered."""

    def __init__(self, connections: list[Connection]) -> None:
        self.connections = connections

    def send(self, conn: int, frame: bytes, request: Sent) -> None:
        self.connections[conn].queue(frame, request)
        self.connections[conn].flush()

    def run(
        self,
        schedule: Iterable[tuple[float, int, bytes, Sent]] = (),
        on_done: Callable[[int, Sent], None] | None = None,
        deadline: float = 120.0,
    ) -> None:
        """Send ``schedule`` (absolute due times, sorted) and wait for replies.

        ``on_done(conn, request)`` runs for each response and may queue
        more requests with :meth:`send`; the run ends when the schedule
        is exhausted and nothing is pending. Raises ``TimeoutError``
        after ``deadline`` seconds.
        """
        items = list(schedule)
        stop_at = clock() + deadline
        # A full collection over the schedule's objects would stall the
        # generator for milliseconds; the run's garbage is reclaimed after.
        gc.disable()
        try:
            self._loop(items, on_done, stop_at)
        finally:
            gc.enable()

    def _loop(self, items: list, on_done, stop_at: float) -> None:
        position = 0
        socks = {c.sock: (index, c) for index, c in enumerate(self.connections)}
        while position < len(items) or any(c.pending for c in self.connections):
            now = clock()
            if now > stop_at:
                raise TimeoutError("the server did not answer in time")
            while position < len(items) and items[position][0] <= now:
                due, conn, frame, request = items[position]
                request.due = due
                self.connections[conn].queue(frame, request)
                position += 1
            for connection in self.connections:
                if connection.wants_write:
                    connection.flush()
            timeout = (
                max(0.0, items[position][0] - clock())
                if position < len(items) else 0.5
            )
            readers = [c.sock for c in self.connections if c.pending]
            writers = [c.sock for c in self.connections if c.wants_write]
            readable, writable, __ = select.select(
                readers, writers, [], min(timeout, 0.5)
            )
            for sock in writable:
                socks[sock][1].flush()
            for sock in readable:
                index, connection = socks[sock]
                for request in connection.receive():
                    if on_done is not None:
                        on_done(index, request)

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
