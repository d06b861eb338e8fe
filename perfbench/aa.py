"""Same-code A/A check: two interleaved sets of runs on one commit.

Run from the root of a checkout::

    python3 perfbench/aa.py --runs 10            # seeds 1..10, two sets
    python3 perfbench/aa.py --runs 1 --sets 1    # every workload once

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``, once
per seed and set, alternating which set goes first; each run's line
shows whether it was correct, every end-to-end metric with its unit,
and the host's CPU steal share over the run. For each workload and
bounded end-to-end metric it then prints each set's quartiles and
spread (Q3 - Q1 over the median) beside the median steal share of the
set's runs, and whether the sets agree: each spread within the metric's
bound, and the medians apart by no more than the bound. Values that must
repeat exactly for a seed (``rel_error_pct``, ``export_bytes``,
``core.smb.round_mean``, ``engine.recovery.generation_bytes``, and with
``--trace 1`` ``core.smb.step1_pass_pct``) must be identical across
sets; any difference means a tenant was fed in a nondeterministic
order. The exit code is 0 only if every run was correct and everything
agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Deterministic values of a traced run, read from its per-layer metrics.
TRACED_DETERMINISTIC = (
    "rel_error_pct", "export_bytes", "core.smb.round_mean",
    "core.smb.step1_pass_pct", "engine.recovery.generation_bytes",
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its report, result line and exit code."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    # A session of its own, so a run that overstays is stopped together
    # with the servers and workers it started.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
    lines = stdout.splitlines()
    report = next((json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("perfbench-report ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode or not result:
        sys.stderr.write(stderr[-2000:])
    deterministic = report.get("deterministic", {})
    if trace and result:
        deterministic = {name: result["metrics"][name]["value"]
                         for name in TRACED_DETERMINISTIC}
    return {"code": proc.returncode, "report": report, "result": result,
            "deterministic": deterministic}


def compare_sets(runs: dict, workloads: list[str], seeds: range,
                 bench: dict) -> bool:
    """Print each set's quartiles per workload and bounded metric; True
    when every spread and every median gap is within the bound."""
    print(f"\n{'workload':18s} {'metric':13s} {'set':3s} {'Q1':>9s} "
          f"{'median':>9s} {'Q3':>9s} {'spread':>6s} {'bound':>5s} "
          f"{'steal%':>6s}  verdict")
    verdicts = []
    for workload in workloads:
        sets = len(runs[(workload, seeds[0])])
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            medians = []
            for which in range(sets):
                done = [runs[(workload, seed)][which] for seed in seeds
                        if runs[(workload, seed)][which]["result"]]
                if len(done) < 2:
                    continue
                q1, q2, q3 = measure.quartiles(
                    run["result"]["metrics"][name]["value"] for run in done)
                steal = statistics.median(
                    run["report"]["host"]["steal_pct"] for run in done)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians.append(q2)
                verdicts.append(spread <= bound)
                print(f"{workload:18s} {name:13s} {'AB'[which]:3s} {q1:9.4g} "
                      f"{q2:9.4g} {q3:9.4g} {spread:6.3f} {bound:5.2f} "
                      f"{steal:6.1f}  {'ok' if spread <= bound else 'SPREAD'}")
            if len(medians) == 2:
                apart = abs(medians[1] - medians[0]) / medians[0]
                verdicts.append(apart <= bound)
                print(f"{'':18s} {'':13s} {'A-B':3s} medians {apart:.3f} "
                      f"apart: {'agree' if apart <= bound else 'DISAGREE'}")
    return all(verdicts)


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per set: 1..RUNS")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = [workload["name"] for workload in bench["workloads"]]
    seeds = range(1, args.runs + 1)

    runs: dict[tuple[str, int], list[dict]] = {}
    for seed in seeds:
        order = list(range(args.sets))
        if seed % 2 == 0:
            order.reverse()
        for workload in workloads:
            pair: list[dict] = [{}] * args.sets
            for which in order:
                pair[which] = run_once(workload, seed, bench["run_seconds"],
                                       args.trace)
                report = pair[which]["report"]
                ok = pair[which]["result"].get("correct")
                metrics = " ".join(
                    f"{name}={metric['value']:.4g} {metric['unit']}"
                    for name, metric in report.get("metrics", {}).items())
                steal = report.get("host", {}).get("steal_pct", float("nan"))
                print(f"seed {seed} {workload} set {'AB'[which]}: "
                      f"{'correct' if ok else 'FAILED'}  {metrics}  "
                      f"steal={steal:.1f}%", flush=True)
            runs[(workload, seed)] = pair

    healthy = True
    for (workload, seed), pair in runs.items():
        for which, run in enumerate(pair):
            if run["code"] or not run["result"].get("correct"):
                healthy = False
                print(f"FAIL {workload} seed {seed} set {'AB'[which]}: "
                      f"exit {run['code']}, problems "
                      f"{run['report'].get('problems')}")
        if args.sets == 2 and pair[0]["deterministic"] != pair[1]["deterministic"]:
            healthy = False
            print(f"FAIL {workload} seed {seed}: deterministic values differ: "
                  f"{pair[0]['deterministic']} vs {pair[1]['deterministic']}")

    if not args.trace:  # traced runs report per-layer metrics only
        healthy = compare_sets(runs, workloads, seeds, bench) and healthy
    print("\nA/A " + ("passed" if healthy else "FAILED"))
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
