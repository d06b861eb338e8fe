"""The ``repro serve`` subcommand: run the cardinality server.

Binds the :class:`~repro.serve.server.CardinalityServer` and serves
until SIGINT/SIGTERM, then drains gracefully (in-flight requests
finish, pipelines close, one final checkpoint generation lands when a
checkpoint directory is configured)::

    repro serve --port 9464
    repro serve --port 0 --shards 4
    repro serve --port 0 --checkpoint-dir ckpts
    repro serve --checkpoint-dir ckpts --resume
    repro serve --metrics-out serve-metrics.json

The first line printed is machine-parseable —
``serving ESTIMATOR on HOST:PORT`` — so test harnesses and the bench
driver can start the server on ``--port 0`` and scrape the ephemeral
port. ``--resume`` restores the newest valid generation from
``--checkpoint-dir`` (fresh registry when the directory is empty), so
a crashed or drained server picks up bit-exact at its last safe point.
The ``REPRO_FAULTS`` environment variable arms
:mod:`repro.testing.faults` failpoints inside the server process
(the kill-and-resume suite crashes the ingest path this way).

``--metrics-out`` enables :mod:`repro.obs` for the process and writes
a final JSON snapshot on shutdown (render with ``repro stats``).
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

from repro.engine.pipeline import DEFAULT_CHUNK
from repro.engine.recovery import CheckpointManager
from repro.estimators.registry import ALL_ESTIMATORS
from repro.serve import protocol
from repro.serve.server import CardinalityServer
from repro.serve.tenants import TenantConfig

__all__ = ["build_parser", "serve_main"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve multi-tenant online cardinality estimates over the "
            "binary frame protocol (see docs/serving.md)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=9464,
        help="TCP port; 0 binds an ephemeral port (default: 9464)",
    )
    parser.add_argument(
        "--estimator", default="SMB", choices=sorted(ALL_ESTIMATORS),
        help="estimator type per tenant shard (default: SMB)",
    )
    parser.add_argument(
        "--memory-bits", type=int, default=5000, metavar="M",
        help="memory budget per tenant (default: 5000)",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="hash shards per tenant (default: 1)",
    )
    parser.add_argument(
        "--design-cardinality", type=int, default=1_000_000, metavar="N*",
        help="cardinality each tenant is provisioned for (default: 1e6)",
    )
    parser.add_argument("--seed", type=int, default=0, help="registry seed")
    parser.add_argument(
        "--max-tenants", type=int, default=10_000, metavar="T",
        help="refuse RECORDs that would create more tenants (default: "
        "10000; each active tenant costs memory)",
    )
    parser.add_argument(
        "--chunk", type=int, default=DEFAULT_CHUNK, metavar="C",
        help=f"pipeline chunk size (default: {DEFAULT_CHUNK})",
    )
    parser.add_argument(
        "--max-frame", type=int, default=protocol.DEFAULT_MAX_FRAME,
        metavar="BYTES",
        help="largest accepted frame body "
        f"(default: {protocol.DEFAULT_MAX_FRAME}); the sketch frame in an "
        "EXPORT or MERGE_IN stays capped at repro.wire.frame.MAX_RAW_BYTES "
        "of payload whatever this is set to",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="enable the CHECKPOINT verb and the final shutdown "
        "generation, managed in DIR (see docs/recovery.md)",
    )
    parser.add_argument(
        "--keep", type=int, default=3, metavar="G",
        help="with --checkpoint-dir: generations to retain (default: 3)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore the newest valid generation from --checkpoint-dir "
        "before serving (fresh registry when none restores)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="enable repro.obs for the server and write a JSON metrics "
        "snapshot to FILE on shutdown",
    )
    return parser


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro serve``; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.port < 0 or args.port > 65535:
        raise SystemExit("--port must be in [0, 65535]")
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    if args.keep < 1:
        raise SystemExit("--keep must be >= 1")
    if args.max_frame < 1:
        raise SystemExit("--max-frame must be >= 1")
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")

    from repro.testing.faults import NullFaultPlan, arm_from_env, set_plan

    armed_plan = arm_from_env(os.environ.get("REPRO_FAULTS"))

    if args.metrics_out:
        from repro.obs import MetricsRegistry, set_registry

        previous_registry = set_registry(MetricsRegistry())
    else:
        previous_registry = None
    try:
        return asyncio.run(_run(args))
    finally:
        if armed_plan is not None:
            set_plan(NullFaultPlan())
        if previous_registry is not None:
            from repro.obs import set_registry

            set_registry(previous_registry)


async def _run(args: "argparse.Namespace") -> int:
    """Serve until a signal arrives, then drain gracefully."""
    config = TenantConfig(
        estimator=args.estimator,
        memory_bits=args.memory_bits,
        shards=args.shards,
        design_cardinality=args.design_cardinality,
        seed=args.seed,
        max_tenants=args.max_tenants,
    )
    manager = (
        CheckpointManager(args.checkpoint_dir, keep=args.keep)
        if args.checkpoint_dir
        else None
    )
    server = CardinalityServer(
        config,
        checkpoint_manager=manager,
        resume=args.resume,
        chunk_size=args.chunk,
        max_frame=args.max_frame,
    )
    # Handlers go in before the first line is printed: a harness may
    # signal as soon as it reads that line, and must get a drain.
    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    for signal_number in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signal_number, stopping.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-Unix event loop: Ctrl-C still raises KeyboardInterrupt
    host, port = await server.start(args.host, args.port)
    if server.last_generation:
        print(
            f"resumed generation {server.last_generation} "
            f"({len(server.registry)} tenants) from {args.checkpoint_dir}",
            flush=True,
        )
    # Machine-parseable: harnesses read this line to learn the port.
    print(f"serving {args.estimator} on {host}:{port}", flush=True)
    serving = asyncio.ensure_future(server.serve_forever())
    try:
        await stopping.wait()
    finally:
        serving.cancel()
        # analysis: allow(asyncio.unshielded-gate) -- lifecycle
        # shutdown in the top-level task, after the signal already
        # fired: nothing cancels this await except process teardown
        # itself, and shielding it would detach the drain from the
        # SIGTERM-driven exit path it implements.
        final = await server.stop()
        if final is not None:
            print(
                f"drained; final generation {final.generation} "
                f"({len(server.registry)} tenants) in {args.checkpoint_dir}",
                flush=True,
            )
        else:
            print("drained", flush=True)
        if args.metrics_out:
            from repro.obs import get_registry, write_snapshot

            submitted, applied, dropped = server._record_totals()
            write_snapshot(
                get_registry(),
                args.metrics_out,
                run={
                    "records_submitted": submitted,
                    "records_applied": applied,
                    "records_dropped": dropped,
                    "tenants": len(server.registry),
                },
            )
            print(
                f"wrote metrics snapshot to {args.metrics_out}", flush=True
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
