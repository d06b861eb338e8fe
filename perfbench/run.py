"""Serve benchmark: run one workload against ``repro serve`` and report.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bulk_ingest --seed 1 --seconds 16 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the bounded end-to-end ones; with
``--trace 1`` the run makes an untraced pass, a traced pass and the
in-process stack baseline, and the metrics are the per-layer ones (see
README.md). The line before it, prefixed ``perfbench-report``, carries
everything else the run measured: every end-to-end metric with its
unit, percentiles with their sample counts, generator lateness, host
noise and the values that must repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: A run gives up (and exits non-zero, its servers killed) after this long.
TIME_LIMIT_S = 170


def _out_of_time(signum, frame):
    raise TimeoutError(f"run did not finish within {TIME_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "serve", "cli.py")):
        print(f"perfbench: no repro source tree under {ROOT}/src; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be in [1, 60] and --seed >= 0")

    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(TIME_LIMIT_S)
    workdir = os.path.join(
        ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    cpu_before = measure.cpu_times()
    calibration_s = measure.calibrate()

    def one_pass(traced: bool):
        return workloads.run_pass(workloads.Context(
            ROOT, os.path.join(workdir, "traced" if traced else "plain"),
            args.workload, args.seed, args.seconds, traced))

    plain = one_pass(False)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "metrics": {name: {"value": plain.metrics[name], "unit": unit}
                    for name, unit in workloads.UNITS.items()},
        "latency": plain.latency,
        "lateness_us": plain.lateness,
        "deterministic": plain.deterministic,
    }
    tally = plain.tally
    if args.trace:
        import layers
        import stack

        traced = one_pass(True)
        tally.attempted += traced.tally.attempted
        tally.failed += traced.tally.failed
        tally.problems += traced.tally.problems
        per_layer = layers.per_layer(traced, plain)
        per_layer.update(stack.baseline(args.seed, args.seconds))
        report["traced"] = {
            "metrics": traced.metrics,
            "latency": traced.latency,
            "deterministic": traced.deterministic,
        }
        if traced.deterministic != plain.deterministic:
            tally.fail("deterministic values differ between the untraced "
                       "and the traced pass")
    report["host"] = {
        "steal_pct": measure.steal_pct(cpu_before, measure.cpu_times()),
        "calibration_s": calibration_s,
    }
    report["attempted"] = tally.attempted
    report["failed"] = tally.failed
    report["problems"] = tally.problems
    print("perfbench-report " + json.dumps(report, sort_keys=True))

    if args.trace:
        per_layer.update(measure.host_metrics(
            report["host"]["steal_pct"], calibration_s))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in per_layer.items()}
    else:
        metrics = {name: report["metrics"][name]
                   for name in workloads.BOUNDED}
    correct = tally.failed == 0
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
