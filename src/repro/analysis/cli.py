"""``repro analyze``: run the invariant checkers and report findings.

Usage::

    repro analyze                  # the whole tree (src/repro)
    repro analyze src/repro/serve  # a subset
    repro analyze --list-rules     # every rule + fix hint

Exit code 0 when no unsuppressed findings remain, 1 otherwise — CI runs
this over ``src/repro`` as a gating job.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.core import AnalysisResult, all_rules, analyze_paths

_DEFAULT_PATHS = ["src/repro"]


def _emit(text: str) -> None:
    """Print without a traceback when the reader (`| head`) hangs up."""
    try:
        print(text)
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass


def _render_human(result: AnalysisResult) -> str:
    lines = [diag.format() for diag in result.diagnostics]
    for diag in result.diagnostics:
        if diag.hint:
            index = lines.index(diag.format())
            lines[index] = f"{diag.format()}\n    hint: {diag.hint}"
    summary = (
        f"{len(result.diagnostics)} finding(s) in "
        f"{result.files_scanned} file(s)"
    )
    if result.suppressed_inline:
        summary += f" ({result.suppressed_inline} allowed inline)"
    if result.diagnostics:
        per_rule = ", ".join(
            f"{rule}: {count}" for rule, count in result.rule_counts().items()
        )
        summary += f"\nby rule: {per_rule}"
    lines.append(summary)
    return "\n".join(lines)


def _render_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.id}")
        lines.append(f"    {rule.summary}")
        lines.append(f"    fix: {rule.hint}")
    return "\n".join(lines)


def analyze_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``analyze`` subcommand; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "Run the AST invariant checkers (purity, determinism, dtype, "
            "guards, asyncio) over Python sources."
        ),
        epilog="See docs/dev-tooling.md for rule rationales and suppression.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule with its fix hint and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _emit(_render_rules())
        return 0

    try:
        result = analyze_paths(args.paths or _DEFAULT_PATHS)
    except FileNotFoundError as error:
        parser.error(str(error))

    _emit(_render_human(result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(analyze_main())
