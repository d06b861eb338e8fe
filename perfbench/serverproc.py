"""Start, watch and stop one ``repro serve`` process, as an operator would.

The server runs as ``python -m repro serve`` from the checkout's
``src`` tree, or, for the traced run, through ``boot.py``, which wraps
the layer entry points and then calls the same ``serve_main``. Its
memory is read from ``/proc``: the peak resident set (``VmHWM``) of the
server and of every process it forked (shard workers, the shared-memory
resource tracker), summed.

Stopping never waits on the server's output pipe, which forked workers
inherit: it waits for the processes themselves, and a worker left
behind by a failed server is killed, so every process ends.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class ServerError(RuntimeError):
    """The server failed to start."""


class ServerProcess:
    def __init__(
        self,
        root: str,
        serve_args: list[str],
        log_path: str,
        spans_path: str | None = None,
    ) -> None:
        self.root = root
        self.serve_args = serve_args
        self.log_path = log_path
        self.spans_path = spans_path
        self.proc: subprocess.Popen[bytes] | None = None
        self.output = b""

    def start(self, timeout: float = 60.0) -> tuple[str, int]:
        """Spawn the server and wait for its ``serving ... on H:P`` line."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env.pop("REPRO_FAULTS", None)
        if self.spans_path is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [
                sys.executable, os.path.join(HERE, "boot.py"),
                "--spans-out", self.spans_path, "--",
            ]
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command + ["--port", "0"] + self.serve_args,
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
            )
        line = self._read_line(timeout)
        parts = line.split()
        if len(parts) != 4 or parts[0] != "serving":
            self.kill()
            raise ServerError(f"unexpected first line from server: {line!r}")
        host, port = parts[3].rsplit(":", 1)
        return host, int(port)

    def _read_line(self, timeout: float) -> str:
        stop_at = time.perf_counter() + timeout
        while b"\n" not in self.output:
            left = stop_at - time.perf_counter()
            if left <= 0 or not self._read(left):
                self.kill()
                raise ServerError(
                    f"server did not report its port; see {self.log_path}")
        line, self.output = self.output.split(b"\n", 1)
        return line.decode("utf-8", "replace").strip()

    def _read(self, timeout: float) -> bool:
        """Read what the server printed within ``timeout``; False at EOF."""
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        ready, __, __ = select.select([fd], [], [], timeout)
        if not ready:
            return True
        chunk = os.read(fd, 4096)
        self.output += chunk
        return bool(chunk)

    def family(self) -> list[int]:
        """The server's pid and the pids of every descendant process."""
        assert self.proc is not None
        parents: dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as handle:
                    stat = handle.read()
            except OSError:
                continue
            fields = stat[stat.rindex(b")") + 2:].split()
            parents[int(entry)] = int(fields[1])
        found = [self.proc.pid]
        frontier = [self.proc.pid]
        while frontier:
            parent = frontier.pop()
            for pid, ppid in parents.items():
                if ppid == parent and pid not in found:
                    found.append(pid)
                    frontier.append(pid)
        return found

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its descendants, in MiB."""
        total_kb = 0
        for pid in self.family():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def cpu_seconds(self) -> float:
        """CPU time so far of every thread of the server and its descendants.

        Read from each thread's ``schedstat`` (nanoseconds on the CPU), so
        it is not quantized to clock ticks. Threads that already ended
        are not counted: take differences over a window in which none
        end.
        """
        total = 0
        for pid in self.family():
            try:
                threads = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in threads:
                try:
                    with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                        total += int(handle.read().split()[0])
                except (OSError, ValueError, IndexError):
                    continue
        return total / 1e9

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code.

        A server that does not drain within ``timeout`` is killed and
        reported as exit code -9.
        """
        if self.proc is None:
            return 0
        descendants = self.family()[1:]
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = -9
        self._end(descendants)
        return code

    def kill(self) -> None:
        """Hard stop for error paths."""
        if self.proc is not None:
            self._end(self.family()[1:])

    def _end(self, descendants: list[int]) -> None:
        """Make sure the server and everything it forked has ended.

        Shard workers are killed outright. The shared-memory resource
        tracker is given a moment to exit by itself once its clients
        are gone, because on the way out it unlinks any segment they
        left behind.
        """
        proc, self.proc = self.proc, None
        assert proc is not None
        trackers = [pid for pid in descendants if _is_tracker(pid)]
        if proc.poll() is None:
            proc.kill()
        for pid in descendants:
            if pid not in trackers:
                _signal(pid, signal.SIGKILL)
        proc.wait()
        assert proc.stdout is not None
        proc.stdout.close()
        stop_at = time.perf_counter() + 10.0
        while any(_alive(pid) for pid in descendants):
            if time.perf_counter() > stop_at:
                for pid in descendants:
                    _signal(pid, signal.SIGKILL)
                stop_at = float("inf")
            time.sleep(0.01)


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:][:1] != b"Z"


def _is_tracker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"resource_tracker" in handle.read()
    except OSError:
        return False
