"""Render a markdown report from the CLI's JSON experiment output.

Usage::

    python -m repro all --json results/all_experiments.json
    python tools/render_report.py results/all_experiments.json results/report.md

The report contains every experiment's tables as GitHub-flavoured
markdown, ready to paste into an issue or paper appendix.

Section headings take each experiment's description from the
experiment table, ``repro.bench.experiments.EXPERIMENTS``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.bench.reporting import format_markdown
from repro.bench.experiments import EXPERIMENTS


def render_report(payload: dict[str, list[dict]], scale_note: str = "") -> str:
    """Markdown report from a {experiment: [block, ...]} payload."""
    lines = [
        "# Experiment report",
        "",
        "Generated from `python -m repro all --json`."
        + (f" {scale_note}" if scale_note else ""),
        "",
    ]
    for name, blocks in payload.items():
        description = EXPERIMENTS.get(name, (None, ""))[1]
        lines.append(f"## {name} — {description}")
        lines.append("")
        for block in blocks:
            lines.append(
                format_markdown(
                    block["headers"], block["rows"], title=block.get("title")
                )
            )
            lines.append("")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("input", type=Path, help="JSON file from --json")
    parser.add_argument("output", type=Path, help="markdown file to write")
    parser.add_argument("--scale-note", default="", help="note about REPRO_SCALE")
    args = parser.parse_args()

    payload = json.loads(args.input.read_text())
    args.output.write_text(render_report(payload, args.scale_note))
    print(f"wrote {args.output} ({len(payload)} experiments)")


if __name__ == "__main__":
    main()
