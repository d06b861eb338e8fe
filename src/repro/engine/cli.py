"""The ``repro engine`` subcommand: run the sharded ingestion engine.

Drives a synthetic (optionally duplicated) stream through a
:class:`~repro.engine.pipeline.IngestPipeline` over a
:class:`~repro.engine.shards.ShardPool`, reports throughput and
estimation accuracy, and optionally checkpoints/restores the pool::

    repro engine --estimator SMB --shards 4 --items 1000000
    repro engine --shards 8 --items 4000000
    repro engine --shards 8 --checkpoint pool.ckpt
    repro engine --restore pool.ckpt --items 500000
    repro engine --metrics-out metrics.json --metrics-interval 5
    repro engine --checkpoint-dir ckpts --checkpoint-every 250000
    repro engine --checkpoint-dir ckpts --resume

``--checkpoint-dir`` puts the run under a
:class:`~repro.engine.recovery.CheckpointManager`: periodic safe-point
checkpoints every ``--checkpoint-every`` records, generation rotation
with ``--keep``, and a final generation at the end of the run. Every
generation's metadata records the absolute stream offset
(``records_ingested``). After a crash, ``--resume`` (with the *same*
``--items/--duplication/--seed``) restores the newest valid generation
and replays only the remainder of the deterministic stream — the
finished estimate matches the uninterrupted run's. The ``REPRO_FAULTS`` environment variable arms
:mod:`repro.testing.faults` failpoints inside the run (crash/resume
smoke only; see docs/recovery.md).

``--metrics-out`` enables the :mod:`repro.obs` registry for the run and
writes a JSON metrics snapshot (pipeline counters and latencies,
per-shard SMB adaptivity signals, checkpoint timings) to the given
path; with ``--metrics-interval`` a background thread refreshes the
snapshot periodically during long ingests. Render a snapshot with
``repro stats``.

Dispatched from the main :mod:`repro.cli` entry point (``repro engine
...``); the experiment ids remain available alongside it.
"""

from __future__ import annotations

import argparse
import os
import time

from repro.engine.checkpoint import load, save
from repro.engine.pipeline import DEFAULT_CHUNK, IngestPipeline
from repro.engine.recovery import CheckpointManager, Generation, RecoveryError
from repro.engine.shards import ShardPool
from repro.estimators.registry import ALL_ESTIMATORS
from repro.streams import distinct_items, stream_with_duplicates

#: Estimator display names the engine accepts. Every one of them
#: declares its state, so every one is checkpointable.
ENGINE_ESTIMATORS = ALL_ESTIMATORS


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro engine`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro engine",
        description=(
            "Sharded concurrent ingestion: partition a stream across K "
            "estimator shards, ingest through a chunked pipeline, "
            "and report throughput and accuracy."
        ),
    )
    parser.add_argument(
        "--estimator", default="SMB", choices=sorted(ENGINE_ESTIMATORS),
        help="estimator type per shard (default: SMB)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, metavar="K",
        help="number of hash shards (default: 4)",
    )
    parser.add_argument(
        "--memory-bits", type=int, default=20_000, metavar="M",
        help="total memory budget, divided across shards (default: 20000)",
    )
    parser.add_argument(
        "--items", type=int, default=100_000, metavar="N",
        help="distinct items in the synthetic stream (default: 100000)",
    )
    parser.add_argument(
        "--duplication", type=float, default=1.0, metavar="F",
        help="stream length as a multiple of N, >= 1 (default: 1.0)",
    )
    parser.add_argument(
        "--design-cardinality", type=int, default=1_000_000, metavar="N*",
        help="cardinality the shards are provisioned for (default: 1e6)",
    )
    parser.add_argument(
        "--chunk", type=int, default=DEFAULT_CHUNK, metavar="C",
        help=f"pipeline chunk size (default: {DEFAULT_CHUNK})",
    )
    parser.add_argument("--seed", type=int, default=0, help="pool seed")
    parser.add_argument(
        "--checkpoint", metavar="FILE",
        help="write an atomic pool checkpoint to FILE after ingesting",
    )
    parser.add_argument(
        "--restore", metavar="FILE",
        help="restore the pool from FILE before ingesting "
        "(overrides --estimator/--shards/--memory-bits)",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="manage rotating, crash-recoverable checkpoint generations "
        "in DIR (see docs/recovery.md)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="with --checkpoint-dir: checkpoint at a safe point every N "
        "ingested records (default: only at the end of the run)",
    )
    parser.add_argument(
        "--keep", type=int, default=3, metavar="G",
        help="with --checkpoint-dir: checkpoint generations to retain "
        "(default: 3)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore the newest valid generation from --checkpoint-dir "
        "and ingest only the not-yet-checkpointed remainder of the "
        "stream (requires the same --items/--duplication/--seed as the "
        "interrupted run)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="enable repro.obs for this run and write a JSON metrics "
        "snapshot to FILE (render it with 'repro stats FILE')",
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=0.0, metavar="SECONDS",
        help="with --metrics-out: refresh the snapshot every SECONDS "
        "during ingestion (default: final snapshot only)",
    )
    return parser


def engine_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro engine``; returns the process exit code.

    With ``--metrics-out`` the :mod:`repro.obs` registry is enabled for
    the duration of the run (and restored afterwards, so in-process
    callers are unaffected).
    """
    args = build_parser().parse_args(argv)
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    if args.duplication < 1.0:
        raise SystemExit("--duplication must be >= 1.0")
    if args.metrics_interval < 0:
        raise SystemExit("--metrics-interval must be >= 0")
    if args.metrics_interval and not args.metrics_out:
        raise SystemExit("--metrics-interval requires --metrics-out")
    if args.keep < 1:
        raise SystemExit("--keep must be >= 1")
    if args.checkpoint_every < 0:
        raise SystemExit("--checkpoint-every must be >= 0")
    if args.checkpoint_every and not args.checkpoint_dir:
        raise SystemExit("--checkpoint-every requires --checkpoint-dir")
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    if args.resume and args.restore:
        raise SystemExit("--resume and --restore are mutually exclusive")

    from repro.testing.faults import NullFaultPlan, arm_from_env, set_plan

    fault_spec = os.environ.get("REPRO_FAULTS")
    armed_plan = arm_from_env(fault_spec)

    if args.metrics_out:
        from repro.obs import MetricsRegistry, set_registry

        previous_registry = set_registry(MetricsRegistry())
    else:
        previous_registry = None
    try:
        return _run(args)
    finally:
        if armed_plan is not None:
            set_plan(NullFaultPlan())
        if previous_registry is not None:
            from repro.obs import set_registry

            set_registry(previous_registry)


def _run(args: "argparse.Namespace") -> int:
    """Run one engine ingest with parsed arguments (see :func:`engine_main`)."""
    from repro.bench.reporting import format_table

    manager = None
    resumed: Generation | None = None
    skip = 0
    if args.checkpoint_dir:
        manager = CheckpointManager(args.checkpoint_dir, keep=args.keep)

    length = int(round(args.items * args.duplication))
    if length > args.items:
        stream = stream_with_duplicates(
            args.items, length, seed=args.seed + 1
        )
    else:
        stream = distinct_items(args.items, seed=args.seed + 1)
    if args.resume:
        assert manager is not None  # --resume requires --checkpoint-dir
        try:
            pool, resumed = manager.load_latest()
        except RecoveryError as exc:
            raise SystemExit(f"cannot resume from {args.checkpoint_dir}: {exc}")
        if not isinstance(pool, ShardPool):
            raise SystemExit(
                f"generation {resumed.generation} holds a "
                f"{type(pool).__name__}, not a ShardPool"
            )
        skip = resumed.meta.get("records_ingested")
        # bool is an int subclass: a saved true is not offset 1.
        if type(skip) is not int or not 0 <= skip <= stream.size:
            raise SystemExit(
                f"cannot resume from {args.checkpoint_dir}: generation "
                f"{resumed.generation} has records_ingested={skip!r}, not "
                f"an offset into this run's {stream.size}-record stream"
            )
        print(
            f"resumed generation {resumed.generation} from "
            f"{args.checkpoint_dir} (records already ingested: {skip})"
        )
    elif args.restore:
        try:
            pool = load(args.restore)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot restore {args.restore}: {exc}")
        if not isinstance(pool, ShardPool):
            raise SystemExit(
                f"{args.restore} holds a "
                f"{type(pool).__name__}, not a ShardPool"
            )
        print(f"restored {pool!r} from {args.restore}")
    else:
        pool = ShardPool.of(
            args.estimator,
            args.memory_bits,
            args.shards,
            design_cardinality=args.design_cardinality,
            seed=args.seed,
        )

    if skip:
        # The stream is deterministic in (--items, --duplication,
        # --seed): dropping the already-checkpointed prefix replays
        # exactly the records the interrupted run lost.
        stream = stream[skip:]

    baseline = pool.query()  # non-zero after a --restore / --resume
    start = time.perf_counter()
    with IngestPipeline(
        pool, chunk_size=args.chunk,
        checkpoint_manager=manager, checkpoint_every=args.checkpoint_every,
    ) as pipeline:
        pipeline.checkpoint_meta = lambda: {
            "records_ingested": skip + pipeline.records_submitted,
        }
        if args.metrics_out and args.metrics_interval > 0:
            from repro.obs import PeriodicSnapshotter, get_registry

            snapshotter = PeriodicSnapshotter(
                get_registry(),
                args.metrics_out,
                interval=args.metrics_interval,
                refresh=pipeline.pool_observer.update
                if pipeline.pool_observer is not None else None,
            ).start()
        else:
            snapshotter = None
        try:
            pipeline.submit(stream)
            pipeline.drain()
        finally:
            if snapshotter is not None:
                snapshotter.stop()
        elapsed = time.perf_counter() - start
        estimate = pool.query()
        if manager is not None:
            # A periodic or resumed generation may already hold it all.
            final = pipeline.last_generation or resumed
            ingested = skip + pipeline.records_submitted
            if final is None or final.meta["records_ingested"] != ingested:
                final = pipeline.checkpoint_now()
            print(
                f"final state in checkpointed generation {final.generation} "
                f"of {args.checkpoint_dir} (records ingested: {ingested})"
            )

    records_per_second = stream.size / elapsed if elapsed > 0 else float("inf")
    new_distinct = args.items
    rows = [
        ["shards", pool.num_shards],
        ["shard estimator", type(pool.shards[0]).__name__],
        ["memory bits (total)", pool.memory_bits()],
        ["records ingested", stream.size],
        ["distinct (this run)", new_distinct],
        ["elapsed seconds", round(elapsed, 4)],
        ["records/sec", int(records_per_second)],
        ["estimate before", round(baseline, 1)],
        ["estimate after", round(estimate, 1)],
        ["delta estimate", round(estimate - baseline, 1)],
    ]
    if skip:
        # A resumed run's delta only covers the replayed remainder; the
        # meaningful accuracy check is the absolute estimate against
        # the full stream's distinct count.
        rows.append(
            ["rel error (estimate vs distinct)",
             round(abs(estimate - new_distinct) / new_distinct, 5)
             if new_distinct else "n/a"]
        )
    else:
        rows.append(
            ["rel error (delta vs distinct)",
             round(abs((estimate - baseline) - new_distinct) / new_distinct, 5)
             if new_distinct else "n/a"]
        )
    print(format_table(["metric", "value"], rows, title="engine run"))

    if args.checkpoint:
        try:
            written = save(pool, args.checkpoint)
        except OSError as exc:
            raise SystemExit(f"cannot checkpoint to {args.checkpoint}: {exc}")
        print(f"checkpointed pool to {args.checkpoint} ({written} bytes)")

    if args.metrics_out:
        from repro.obs import get_registry, write_snapshot

        try:
            write_snapshot(
                get_registry(),
                args.metrics_out,
                run={
                    "records_submitted": pipeline.records_submitted,
                    "records_dropped": pipeline.records_dropped,
                    "distinct_items": int(new_distinct),
                    "elapsed_seconds": elapsed,
                    "estimate": estimate,
                    "shards": pool.num_shards,
                },
            )
        except OSError as exc:
            raise SystemExit(
                f"cannot write metrics to {args.metrics_out}: {exc}"
            )
        print(f"wrote metrics snapshot to {args.metrics_out}")
    return 0
