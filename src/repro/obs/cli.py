"""The ``repro stats`` subcommand: inspect a metrics snapshot.

Reads a JSON snapshot written by ``repro engine --metrics-out`` (or the
periodic snapshotter), checks it with
:func:`~repro.obs.render.validate_metrics_snapshot` (exiting with the
problems when it is invalid), and renders it as a human-readable table,
as Prometheus exposition text, or re-emits the JSON::

    repro stats metrics.json                  # aligned table
    repro stats metrics.json --format prom    # Prometheus text
    repro stats metrics.json --format json    # normalized JSON

Dispatched from the main :mod:`repro.cli` entry point.
"""

from __future__ import annotations

import argparse
import json

from repro.obs.render import render_prometheus, validate_metrics_snapshot

__all__ = ["build_parser", "stats_main"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro stats`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description=(
            "Render a repro.obs metrics snapshot (as written by "
            "'repro engine --metrics-out FILE')."
        ),
    )
    parser.add_argument(
        "snapshot", metavar="FILE",
        help="JSON metrics snapshot to render",
    )
    parser.add_argument(
        "--format", choices=("table", "prom", "json"), default="table",
        help="output format (default: table)",
    )
    return parser


def _sample_rows(family: dict) -> list[list[object]]:
    rows: list[list[object]] = []
    name = family["name"]
    for sample in family["samples"]:
        labels = sample.get("labels", {})
        label_text = ",".join(f"{k}={v}" for k, v in labels.items())
        if family["type"] == "histogram":
            rows.append([
                name, family["type"], label_text,
                f"count={sample['count']} sum={round(sample['sum'], 6)} "
                f"p50={sample['p50']:.3g} p90={sample['p90']:.3g} "
                f"p99={sample['p99']:.3g}",
            ])
        else:
            rows.append([name, family["type"], label_text, sample["value"]])
    return rows


def stats_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro stats``; returns the process exit code."""
    from repro.bench.reporting import format_table

    args = build_parser().parse_args(argv)
    try:
        with open(args.snapshot, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read snapshot {args.snapshot}: {exc}")
    problems = validate_metrics_snapshot(document)
    if problems:
        raise SystemExit(
            f"{args.snapshot} is not a valid repro.obs metrics snapshot:\n  "
            + "\n  ".join(problems)
        )

    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    if args.format == "prom":
        print(render_prometheus(document), end="")
        return 0

    rows: list[list[object]] = []
    for family in document["metrics"]:
        rows.extend(_sample_rows(family))
    title = f"metrics snapshot: {args.snapshot}"
    if rows:
        print(format_table(["metric", "type", "labels", "value"], rows,
                           title=title))
    else:
        print(f"{title}\n(no metrics recorded)")
    run = document.get("run")
    if isinstance(run, dict) and run:
        run_rows = [[key, run[key]] for key in sorted(run)]
        print()
        print(format_table(["run fact", "value"], run_rows, title="run"))
    return 0
