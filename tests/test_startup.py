"""Start-up budget and class-registry completeness, in fresh interpreters.

A ``repro`` process should load only what it runs: ``import repro``
loads no numpy, ``repro serve`` loads neither the experiment harness
nor the client side of the serving layer nor the TLS stack, and the
server boots with one thread (OpenBLAS's idle worker pool is off by
default). Each check runs a new interpreter, because this test process
has long since imported everything.

The class registry must be complete whatever a process imported first:
a process that only imports the checkpoint layer or the wire format
still decodes every class either container can hold.
"""

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.engine import checkpoint
from repro.engine.shards import ShardPool
from repro.serve import protocol
from repro.serve.tenants import TenantConfig, TenantRegistry
from repro.wire import encode_sketch

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Packages a ``repro serve`` process has no use for.
NOT_SERVED = (
    "repro.bench",
    "repro.sketches",
    "repro.streams",
    "repro.analysis",
    "repro.agg",
    "repro.serve.client",
)


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("OPENBLAS_NUM_THREADS", None)  # test the default
    env.pop("REPRO_FAULTS", None)
    return env


def _run(code: str) -> str:
    """Run ``code`` in a fresh interpreter; returns its stdout."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=_environment(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _loaded_after(code: str) -> set[str]:
    """Every module a fresh interpreter holds after running ``code``.

    A ``None`` entry in ``sys.modules`` blocks an import; it is not a
    loaded module.
    """
    out = _run(textwrap.dedent(code) + (
        "\nimport sys\n"
        "print(*(name for name, module in sys.modules.items()"
        " if module is not None))\n"
    ))
    return set(out.split())


SERVE_HELP = """
    from repro.cli import main
    try:
        main(["serve", "--help"])
    except SystemExit:
        pass
"""


@contextlib.contextmanager
def _serving(*flags: str):
    """A ``python -m repro serve`` process; yields it and its port."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
        env=_environment(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    try:
        line = process.stdout.readline()
        assert line.startswith("serving "), line
        yield process, int(line.rsplit(":", 1)[1])
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover
            process.kill()
            process.wait(timeout=10)
        process.stdout.close()


def _ask(port: int, *requests) -> list:
    """Send ``requests`` on one connection; returns their replies."""
    decoder = protocol.FrameDecoder()
    replies: list = []
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(b"".join(map(protocol.encode_request, requests)))
        while len(replies) < len(requests):
            chunk = sock.recv(65536)
            assert chunk, "server closed the connection"
            replies += map(protocol.decode_response, decoder.feed(chunk))
    return replies


def _maps_tls(pid: int) -> list[str]:
    """The OpenSSL libraries mapped into process ``pid``."""
    with open(f"/proc/{pid}/maps") as maps:
        return sorted({
            line.split()[-1] for line in maps
            if "libssl" in line or "libcrypto" in line
        })


class TestImportBudget:
    def test_import_repro_loads_no_numpy(self):
        loaded = _loaded_after("import repro")
        assert "numpy" not in loaded
        assert not {name for name in loaded if name.startswith("repro.")}

    def test_serve_loads_only_what_it_serves(self):
        loaded = _loaded_after(SERVE_HELP)
        assert "repro.serve.cli" in loaded
        unwanted = sorted(
            name for name in loaded
            if any(name == package or name.startswith(package + ".")
                   for package in NOT_SERVED)
        )
        assert not unwanted, f"repro serve loaded {unwanted}"

    def test_blas_default_yields_to_a_set_value_and_to_loaded_numpy(
        self, monkeypatch, capsys
    ):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert main(["list"]) == 0  # numpy is loaded in this process
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        out = _run("""
            import os
            os.environ["OPENBLAS_NUM_THREADS"] = "2"
            from repro.cli import main
            main(["list"])
            print(os.environ["OPENBLAS_NUM_THREADS"])
        """)
        assert out.split()[-1] == "2"

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs /proc"
    )
    def test_served_process_has_one_thread(self):
        with _serving() as (process, __):
            threads = os.listdir(f"/proc/{process.pid}/task")
        assert len(threads) == 1, f"threads after boot: {threads}"


class TestNoTls:
    """The frame protocol is plaintext: ``repro serve`` loads no ssl."""

    def test_serve_loads_no_ssl(self):
        loaded = _loaded_after(SERVE_HELP)
        assert "asyncio" in loaded
        assert not {"ssl", "_ssl"} & loaded

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs /proc"
    )
    def test_served_process_maps_no_openssl(self, tmp_path):
        keys = np.arange(5_000, dtype=np.uint64)
        with _serving("--checkpoint-dir", str(tmp_path)) as (process, port):
            replies = _ask(
                port,
                protocol.Record("t", keys),
                protocol.Checkpoint(),
                protocol.Export("t"),
            )
            mapped = _maps_tls(process.pid)
        assert [type(reply) for reply in replies] == [
            protocol.RecordOk, protocol.CheckpointOk, protocol.ExportOk,
        ], replies
        assert replies[0].accepted == keys.size
        assert not mapped, f"repro serve maps {mapped}"

    def test_asyncio_loaded_first_keeps_ssl_importable(self):
        out = _run(
            "import asyncio\n"
            + textwrap.dedent(SERVE_HELP)
            + "import ssl\nprint(ssl.OPENSSL_VERSION_NUMBER > 0)\n"
        )
        assert out.split()[-1] == "True"


class TestRegistryLoadsItself:
    def test_checkpoint_layer_alone_loads_a_tenant_registry(self, tmp_path):
        registry = TenantRegistry(TenantConfig(memory_bits=2_000, shards=2))
        registry.record_many("flows", np.arange(3_000, dtype=np.uint64))
        path = tmp_path / "registry.ckpt"
        checkpoint.save(registry, path, sync_directory=False)
        out = _run(f"""
            from repro.engine.checkpoint import load
            restored = load({str(path)!r})
            print(type(restored).__name__, restored.tenants())
        """)
        assert out.split() == ["TenantRegistry", "['flows']"]

    def test_wire_alone_decodes_a_shard_pool(self, tmp_path):
        pool = ShardPool.of("HLL", memory_bits=4_096, num_shards=2, seed=3)
        pool.record_many(np.arange(2_000, dtype=np.uint64))
        path = tmp_path / "pool.sketch"
        path.write_bytes(encode_sketch(pool))
        out = _run(f"""
            from pathlib import Path
            from repro.wire import decode_sketch
            pool = decode_sketch(Path({str(path)!r}).read_bytes())
            print(type(pool).__name__, pool.query())
        """)
        name, estimate = out.split()
        assert name == "ShardPool"
        assert float(estimate) == pool.query()

    def test_registry_equals_the_table_after_importing_everything(self):
        out = _run("""
            import importlib
            import json
            import pkgutil

            import repro
            from repro.estimators.registry import sketch_registry

            def table():
                return {name: f"{cls.__module__}.{cls.__qualname__}"
                        for name, cls in sketch_registry("checkpoint").items()}

            first = table()
            for info in pkgutil.walk_packages(repro.__path__, "repro."):
                importlib.import_module(info.name)
            print(json.dumps([first, table()]))
        """)
        first, everything = json.loads(out)
        assert first == everything
