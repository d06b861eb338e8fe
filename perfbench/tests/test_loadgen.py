"""Open-loop timing: latency runs from the due time, lateness is reported."""

import socket
import struct
import threading
import time

import pytest

import traffic
from loadgen import Connection, LoadLoop, Sent, clock

REPLY = struct.pack("<IB", 9, traffic.ESTIMATE_OK) + struct.pack("<d", 1.0)


class EchoServer:
    """Answers every frame with ESTIMATE_OK, after ``delay`` seconds."""

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, __ = self.listener.accept()
        buffer = b""
        with conn:
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                buffer += data
                while len(buffer) >= 4:
                    (length,) = struct.unpack_from("<I", buffer)
                    if len(buffer) < 4 + length:
                        break
                    buffer = buffer[4 + length:]
                    time.sleep(self.delay)
                    conn.sendall(REPLY)

    def close(self) -> None:
        self.listener.close()
        self.thread.join(5)
        assert not self.thread.is_alive()


@pytest.fixture
def echo():
    server = EchoServer()
    yield server
    server.close()


def schedule(start: float, gap: float, count: int):
    frame = traffic.encode_estimate("t")
    return [(start + i * gap, 0, frame, Sent(traffic.ESTIMATE, 0.0, "t"))
            for i in range(count)]


def test_requests_are_sent_at_their_due_time(echo):
    load = LoadLoop([Connection("127.0.0.1", echo.port)])
    items = schedule(clock() + 0.02, 0.005, 20)
    load.run(items)
    load.close()
    for due, __, __, request in items:
        assert request.due == due
        assert due <= request.sent <= request.done
        assert request.response_verb == traffic.ESTIMATE_OK


def test_a_generator_stall_shows_as_lateness_and_latency(echo):
    load = LoadLoop([Connection("127.0.0.1", echo.port)])
    items = schedule(clock() + 0.02, 0.002, 30)
    stalled = []

    def on_done(conn, request):
        if not stalled:
            stalled.append(request)
            time.sleep(0.05)  # the generator is busy; requests fall due

    load.run(items, on_done=on_done)
    load.close()
    first_done = stalled[0].done
    late = [r for __, __, __, r in items if first_done < r.due < first_done + 0.04]
    assert late
    for request in late:
        # Sent only after the stall, and timed from when it was due.
        assert request.sent >= first_done + 0.05 - 1e-4
        assert request.done - request.due >= request.sent - request.due > 0.005


def test_latency_counts_server_time_from_due():
    server = EchoServer(delay=0.01)
    load = LoadLoop([Connection("127.0.0.1", server.port)])
    items = schedule(clock() + 0.01, 0.001, 10)
    load.run(items)
    load.close()
    server.close()
    latencies = [r.done - r.due for __, __, __, r in items]
    # Requests queue behind each other at the server: the last one
    # waits for all ten replies although it was sent on time.
    assert latencies[-1] > 0.08


def test_closed_loop_callbacks_queue_more_work(echo):
    load = LoadLoop([Connection("127.0.0.1", echo.port)])
    frame = traffic.encode_estimate("t")
    answered = []

    def on_done(conn, request):
        answered.append(request)
        if len(answered) < 5:
            load.send(0, frame, Sent(traffic.ESTIMATE, clock(), "t"))

    load.send(0, frame, Sent(traffic.ESTIMATE, clock(), "t"))
    load.run(on_done=on_done)
    load.close()
    assert len(answered) == 5
