"""Kill-and-resume smoke test of the crash-recovery subsystem.

Runs ``repro engine`` in a subprocess with a ``REPRO_FAULTS`` crash
armed at a failpoint (so the process hard-exits mid-ingest via
``os._exit``), verifies that the interrupted run left a loadable
checkpoint generation behind, resumes with ``--resume``, and checks
the finished estimate against a synchronous single-process oracle.

This is the scripted version of the integration matrix in
``tests/test_crash_recovery.py`` — CI runs it as a *non-gating* smoke
(real subprocess, real filesystem, no monkeypatching) on top of the
gating fault-injection suite. See docs/recovery.md for the failure
model and the failpoint catalog.

Usage (from the repo root)::

    PYTHONPATH=src python tools/crash_smoke.py \
        [--items 30000] [--shards 2] [--checkpoint-every 8000] \
        [--failpoint pipeline.worker-apply] [--ordinal 3] \
        [--tolerance 0.05]

Exit code 0 when the cycle holds (crash observed, resume succeeded,
estimate within tolerance of the oracle), 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

CRASH_EXIT_CODE = 70  # repro.testing.faults.CRASH_EXIT_CODE


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the crash smoke script."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=30_000)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--memory-bits", type=int, default=20_000)
    parser.add_argument("--checkpoint-every", type=int, default=8_000)
    parser.add_argument(
        "--failpoint", default="pipeline.worker-apply",
        help="failpoint to crash at (default: pipeline.worker-apply)",
    )
    parser.add_argument(
        "--ordinal", type=int, default=3,
        help="1-based hit of the failpoint that crashes (default: 3, "
        "which every catalogued failpoint reaches in the default run)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="max |estimate - distinct| / distinct after resume",
    )
    parser.add_argument(
        "--dir", default=None,
        help="checkpoint directory (default: a fresh temp dir)",
    )
    return parser


def engine_argv(args: argparse.Namespace, directory: str) -> list[str]:
    """The shared ``repro engine`` argument vector for both runs."""
    return [
        sys.executable, "-m", "repro", "engine",
        "--items", str(args.items),
        "--shards", str(args.shards),
        "--memory-bits", str(args.memory_bits),
        "--checkpoint-dir", directory,
        "--checkpoint-every", str(args.checkpoint_every),
    ]


def run_cycle(args: argparse.Namespace, directory: str) -> int:
    """Crash, resume, check; returns the process exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")

    crash_env = dict(env)
    crash_env["REPRO_FAULTS"] = f"{args.failpoint}:crash@{args.ordinal}"
    crashed = subprocess.run(
        engine_argv(args, directory), env=crash_env,
        capture_output=True, text=True,
    )
    if crashed.returncode != CRASH_EXIT_CODE:
        print(
            f"FAIL: crash run exited {crashed.returncode}, expected "
            f"{CRASH_EXIT_CODE}\n{crashed.stdout}{crashed.stderr}"
        )
        return 1
    print(f"crash run died at {args.failpoint}@{args.ordinal} as armed")

    generations = [
        name for name in os.listdir(directory)
        if name.startswith("ckpt-") and name.endswith(".rpck")
    ]
    if not generations:
        print(f"FAIL: no checkpoint generation survived in {directory}")
        return 1
    print(f"surviving generations: {sorted(generations)}")

    resumed = subprocess.run(
        engine_argv(args, directory) + ["--resume"], env=env,
        capture_output=True, text=True,
    )
    if resumed.returncode != 0:
        print(
            f"FAIL: resume exited {resumed.returncode}\n"
            f"{resumed.stdout}{resumed.stderr}"
        )
        return 1
    if "resumed generation" not in resumed.stdout:
        print(f"FAIL: resume did not restore a generation\n{resumed.stdout}")
        return 1

    estimate = None
    for line in resumed.stdout.splitlines():
        if "estimate after" in line:
            estimate = float(line.split()[-1].replace(",", ""))
    if estimate is None:
        print(f"FAIL: no estimate in resume output\n{resumed.stdout}")
        return 1

    error = abs(estimate - args.items) / args.items
    verdict = "ok" if error <= args.tolerance else "FAIL"
    print(
        f"{verdict}: resumed estimate {estimate:.1f} vs {args.items} "
        f"distinct (rel error {error:.4f}, tolerance {args.tolerance})"
    )
    return 0 if error <= args.tolerance else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.dir is not None:
        os.makedirs(args.dir, exist_ok=True)
        return run_cycle(args, args.dir)
    with tempfile.TemporaryDirectory(prefix="crash-smoke-") as directory:
        return run_cycle(args, directory)


if __name__ == "__main__":
    raise SystemExit(main())
