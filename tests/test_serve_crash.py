"""Kill-and-resume: the server crashes mid-ingest and comes back exact.

A real ``repro serve`` subprocess is armed (via ``REPRO_FAULTS``) to
hard-crash — ``os._exit``, no cleanup, simulated power loss — inside
the pipeline's worker-apply failpoint while a client is streaming
RECORDs. The suite then restarts the server with ``--resume`` on the
same port and asserts the recovery contract end to end:

- the restored estimates are **bit-exact** with a local oracle holding
  exactly the saved generation's records (the checkpointed prefix;
  everything recorded after the last CHECKPOINT is gone, as documented);
- the client's :class:`~repro.serve.client.RetryingClient` — driven by
  the same :class:`~repro.engine.recovery.RetryPolicy` as the
  checkpoint layer — rides through the crash window transparently:
  its RECORD retries reconnect once the server is back, and the
  re-recorded stream lands the final state bit-exact with an oracle of
  the full stream (at-least-once + duplicate-insensitivity);
- the crash really was the injected one (exit code
  :data:`repro.testing.faults.CRASH_EXIT_CODE`), so the test cannot
  silently pass via a clean shutdown.

The subprocess speaks the real wire protocol over a real socket; the
failpoint ordinal is placed so the crash lands *after* the checkpoint
(set A applied and saved) and *during* set B's ingest.
"""

import asyncio
import os
import re
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.engine.recovery import CheckpointManager, RetryPolicy
from repro.serve.client import RetryingClient, ServeClient
from repro.serve.tenants import TenantConfig, TenantRegistry
from repro.testing.faults import CRASH_EXIT_CODE

SEED = 11
MEMORY_BITS = 5000
DESIGN = 500_000
TENANT = "alpha"
BATCH = 8192  # one pipeline chunk -> exactly one worker-apply per frame

SERVER_CONFIG = TenantConfig(
    estimator="SMB",
    memory_bits=MEMORY_BITS,
    shards=1,
    design_cardinality=DESIGN,
    seed=SEED,
)


def free_port() -> int:
    """A port that was free a moment ago (the restart must reuse it)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def batch_for(index: int) -> np.ndarray:
    """Frame ``index`` of the deterministic stream (disjoint ranges)."""
    start = index * BATCH
    return np.arange(start, start + BATCH, dtype=np.uint64)


def start_server(tmp_path, port: int, resume: bool, faults: str | None):
    """Spawn ``repro serve`` and wait for its 'serving' line."""
    command = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1",
        "--port", str(port),
        "--estimator", "SMB",
        "--memory-bits", str(MEMORY_BITS),
        "--shards", "1",
        "--design-cardinality", str(DESIGN),
        "--seed", str(SEED),
        "--checkpoint-dir", str(tmp_path / "ckpts"),
    ]
    if resume:
        command.append("--resume")
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [
            os.path.join(os.path.dirname(__file__), os.pardir, "src"),
            environment.get("PYTHONPATH", ""),
        ])
    )
    environment.pop("REPRO_FAULTS", None)
    if faults:
        environment["REPRO_FAULTS"] = faults
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=environment,
    )
    deadline = time.monotonic() + 60
    for line in iter(process.stdout.readline, ""):
        if re.search(r"serving \S+ on 127\.0\.0\.1:\d+", line):
            return process
        if time.monotonic() > deadline:  # pragma: no cover - hang guard
            break
    process.kill()
    pytest.fail("server subprocess never reported its listening port")


def stop_server(process) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
            process.kill()
            process.wait(timeout=10)
    process.stdout.close()


def retry_policy() -> RetryPolicy:
    # Generous attempts: the retry loop must outlast a full interpreter
    # restart of the server subprocess (seconds, not milliseconds).
    return RetryPolicy(
        max_attempts=40, base_delay=0.1, multiplier=1.5, max_delay=1.0
    )


def test_sigterm_at_the_serving_line_drains(tmp_path):
    """A SIGTERM sent the moment the 'serving' line is read still gets the
    graceful path: exit 0, a 'drained' line, one final generation."""
    process = start_server(tmp_path, free_port(), resume=False, faults=None)
    process.send_signal(signal.SIGTERM)
    try:
        output, __ = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
        process.kill()
        process.communicate(timeout=10)
        raise
    assert process.returncode == 0, output
    assert "drained" in output
    manager = CheckpointManager(tmp_path / "ckpts", sync_directory=False)
    assert [g.generation for g in manager.generations()] == [1]


def test_kill_and_resume_bit_exact(tmp_path):
    frames_a = 3  # checkpointed prefix (set A)
    frames_b = 4  # in-flight suffix (set B); the crash lands inside it
    # Worker-apply fires once per frame: A is applies 1..3, the
    # checkpoint drains (no fire), B starts at 4 — crash on its 2nd.
    crash_ordinal = frames_a + 2
    port = free_port()

    server = start_server(
        tmp_path,
        port,
        resume=False,
        faults=f"pipeline.worker-apply:crash@{crash_ordinal}",
    )
    restarted = None
    try:
        async def phase_one():
            """Record A, checkpoint, then push B until the crash bites."""
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                for index in range(frames_a):
                    await client.record(TENANT, batch_for(index))
                generation = await client.checkpoint()
                assert generation >= 1
                estimate_a = await client.estimate(TENANT)
                crashed = False
                for index in range(frames_a, frames_a + frames_b):
                    try:
                        await client.record(TENANT, batch_for(index))
                    except (ConnectionError, OSError):
                        crashed = True
                        break
                return estimate_a, crashed
            finally:
                try:
                    await client.close()
                except (ConnectionError, OSError):
                    pass

        estimate_a, saw_disconnect = asyncio.run(phase_one())
        server.wait(timeout=30)
        # The injected crash, not a clean exit or an unrelated failure.
        assert server.returncode == CRASH_EXIT_CODE
        assert saw_disconnect, "client never observed the crash"

        # Oracle for the saved generation: set A, drained, equals a
        # synchronous single-producer ingest of the same frames in order.
        oracle = TenantRegistry(SERVER_CONFIG)
        for index in range(frames_a):
            oracle.record_many(TENANT, batch_for(index))
        assert estimate_a == oracle.estimate(TENANT)

        restarted = start_server(tmp_path, port, resume=True, faults=None)

        async def phase_two():
            """RetryingClient rides the restart; estimates stay exact."""
            client = RetryingClient("127.0.0.1", port, policy=retry_policy())
            try:
                resumed = await client.estimate(TENANT)
                stats = await client.stats()
                # Re-record all of B (at-least-once: duplicates of the
                # partially-applied pre-crash suffix are harmless by
                # duplicate-insensitivity — and the saved
                # generation never contained them anyway).
                for index in range(frames_a, frames_a + frames_b):
                    await client.record(TENANT, batch_for(index))
                await client.checkpoint()
                final = await client.estimate(TENANT)
                return resumed, stats, final
            finally:
                await client.close()

        resumed_estimate, stats, final_estimate = asyncio.run(phase_two())

        # Bit-exact restore of the saved generation.
        assert resumed_estimate == estimate_a
        assert stats["checkpoint"]["generation"] >= 1
        assert stats["tenants"] == 1

        # And the replayed suffix lands bit-exact against the full
        # stream's oracle (A then B, in order, single producer).
        for index in range(frames_a, frames_a + frames_b):
            oracle.record_many(TENANT, batch_for(index))
        assert final_estimate == oracle.estimate(TENANT)
    finally:
        stop_server(server)
        if restarted is not None:
            stop_server(restarted)


def test_retrying_client_reconnects_through_restart(tmp_path):
    """RECORDs issued *while the server is down* succeed once it is back."""
    port = free_port()
    server = start_server(tmp_path, port, resume=False, faults=None)
    second = None
    try:
        async def warm_up():
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.record(TENANT, batch_for(0))
                await client.checkpoint()

        asyncio.run(warm_up())
        stop_server(server)  # graceful: final generation saved

        second = start_server(tmp_path, port, resume=True, faults=None)

        async def through_restart():
            client = RetryingClient("127.0.0.1", port, policy=retry_policy())
            try:
                accepted = await client.record(TENANT, batch_for(1))
                await client.checkpoint()
                return accepted, await client.estimate(TENANT)
            finally:
                await client.close()

        accepted, estimate = asyncio.run(through_restart())
        assert accepted == BATCH

        oracle = TenantRegistry(SERVER_CONFIG)
        oracle.record_many(TENANT, batch_for(0))
        oracle.record_many(TENANT, batch_for(1))
        assert estimate == oracle.estimate(TENANT)
    finally:
        if server.poll() is None:
            stop_server(server)
        if second is not None:
            stop_server(second)
