"""The experiment table: regenerate any table or figure of the paper.

Usage::

    python -m repro list                      # show all experiments
    python -m repro table4                    # recording throughput
    python -m repro fig6 --json fig6.json     # machine-readable output
    python -m repro all --json results.json
    REPRO_SCALE=1.0 python -m repro table4    # paper-scale workloads

:data:`EXPERIMENTS` maps each experiment id to its runner and a
one-line description. Each runner produces one or more :class:`Block`
objects — a title plus headers and rows — printed as aligned text and
optionally dumped as JSON. :func:`experiments_main` is the argument
parser behind ``python -m repro <experiment>``; :mod:`repro.cli`
dispatches to it. See DESIGN.md §3 for the experiment index and
EXPERIMENTS.md for the paper-vs-measured record.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bench import (
    absolute_error_by_group,
    accuracy_sweep,
    format_table,
    overhead_table,
    query_throughput,
    query_throughput_vs_cardinality,
    query_throughput_vs_memory,
    recording_throughput,
    recording_throughput_table,
    select_columns,
    smb_throughput_by_range,
)
from repro.bench.runner import ALL_ESTIMATORS
from repro.core.theory import (
    beta_curve,
    hll_error_bound,
    mrb_error_bound,
    smb_error_bound,
)
from repro.core.tuning import (
    TABLE_III,
    mrb_parameters,
    optimal_threshold,
    optimal_threshold_table,
)

__all__ = ["EXPERIMENTS", "Block", "experiments_main"]

_DELTAS = np.round(np.arange(0.02, 0.42, 0.02), 3)


@dataclass
class Block:
    """One table of experiment output (figures also carry chart data)."""

    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    chart: dict[str, object] | None = None

    def render(self, with_chart: bool = False) -> str:
        """Aligned-text rendering (plus an ASCII chart for figures)."""
        text = format_table(self.headers, self.rows, title=self.title)
        if with_chart and self.chart is not None:
            from repro.bench.reporting import ascii_chart

            text += "\n\n" + ascii_chart(
                self.chart["x"],
                self.chart["series"],
                log_x=bool(self.chart.get("log_x")),
                log_y=bool(self.chart.get("log_y")),
            )
        return text

    def to_json(self) -> dict[str, object]:
        """JSON-serializable form of the block."""
        return {"title": self.title, "headers": self.headers, "rows": self.rows}


def _from_dict_rows(rows: list[dict[str, object]], title: str) -> Block:
    headers = list(rows[0].keys())
    return Block(title, headers, [[row[h] for h in headers] for row in rows])


def _from_series(
    x_label: str,
    x_values: list[object],
    series: dict[str, list[object]],
    title: str,
    log_x: bool = False,
    log_y: bool = False,
) -> Block:
    headers = [x_label, *series.keys()]
    rows = [
        [x, *(column[index] for column in series.values())]
        for index, x in enumerate(x_values)
    ]
    chart = {"x": x_values, "series": series, "log_x": log_x, "log_y": log_y}
    return Block(title, headers, rows, chart=chart)


# ----------------------------------------------------------------------
# Experiment runners: each returns a list of Blocks.
# ----------------------------------------------------------------------

def run_table1() -> list[Block]:
    """Table I: measured recording/query overheads."""
    return [_from_dict_rows(overhead_table(), "Measured overheads (Table I)")]


def run_table2() -> list[Block]:
    """Table II: optimal SMB threshold grid."""
    table = optimal_threshold_table()
    ms = sorted({m for m, __ in table}, reverse=True)
    ns = sorted({n for __, n in table}, reverse=True)
    rows = [
        [n, *(f"T={table[(m, n)]} (m/T={m // table[(m, n)]})" for m in ms)]
        for n in ns
    ]
    return [Block(
        "Optimal SMB threshold (Table II)",
        ["n \\ m", *(f"m={m}" for m in ms)],
        rows,
    )]


def run_table3() -> list[Block]:
    """Table III: MRB dimensioning grid."""
    ms = sorted({m for m, __ in TABLE_III}, reverse=True)
    ns = sorted({n for __, n in TABLE_III}, reverse=True)
    rows = []
    for n in ns:
        cells = []
        for m in ms:
            params = mrb_parameters(m, n)
            cells.append(f"{params.component_bits}x{params.num_components}")
        rows.append([n, *cells])
    return [Block(
        "MRB parameters m/k x k (Table III)",
        ["n \\ m", *(f"m={m}" for m in ms)],
        rows,
    )]


def run_fig5a() -> list[Block]:
    """Fig. 5a: SMB error bound beta(delta) per memory budget."""
    series = {}
    for m in (10_000, 5_000, 2_500, 1_000):
        t = optimal_threshold(m, 1_000_000)
        series[f"m={m} (T={t})"] = np.round(
            beta_curve(_DELTAS, 1e6, m, t), 4
        ).tolist()
    return [_from_series(
        "delta", _DELTAS.tolist(), series,
        "SMB error bound beta vs delta, n=1M (Fig. 5a)",
    )]


def run_fig5b() -> list[Block]:
    """Fig. 5b: bound comparison SMB vs MRB vs HLL++."""
    m, n = 10_000, 1e6
    t = optimal_threshold(m, 1_000_000)
    series = {
        "SMB": [round(smb_error_bound(float(d), n, m, t), 4) for d in _DELTAS],
        "MRB": [round(mrb_error_bound(float(d), n, 909, 11), 4) for d in _DELTAS],
        "HLL++": [round(hll_error_bound(float(d), m), 4) for d in _DELTAS],
    }
    return [_from_series(
        "delta", _DELTAS.tolist(), series,
        "Error bound comparison, n=1M, m=10000 (Fig. 5b)",
    )]


def run_table4() -> list[Block]:
    """Table IV: batch recording throughput vs cardinality."""
    return [_from_dict_rows(
        recording_throughput_table(),
        "Recording throughput (Mdps) vs cardinality, m=5000 (Table IV)",
    )]


def run_table4_scalar() -> list[Block]:
    """Table IV (scalar): per-item recording throughput."""
    return [_from_dict_rows(
        recording_throughput_table(path="scalar"),
        "Per-item (scalar path) recording throughput, m=5000",
    )]


def run_table5() -> list[Block]:
    """Table V: query throughput vs memory budget."""
    return [_from_dict_rows(
        query_throughput_vs_memory(),
        "Query throughput (queries/s) vs memory (Table V)",
    )]


def run_table6() -> list[Block]:
    """Table VI: query throughput vs cardinality."""
    return [_from_dict_rows(
        query_throughput_vs_cardinality(),
        "Query throughput (queries/s) vs cardinality, m=5000 (Table VI)",
    )]


def run_table7() -> list[Block]:
    """Table VII: MRB query throughput vs cardinality."""
    return [_from_dict_rows(
        query_throughput_vs_cardinality(estimators=("MRB", "SMB")),
        "MRB query throughput vs cardinality (Table VII)",
    )]


def _accuracy_blocks(memory_bits: int, label: str) -> list[Block]:
    rows = accuracy_sweep(memory_bits)
    blocks = []
    for metric, title in (("abs_error", "mean absolute error"),
                          ("rel_error", "mean relative error")):
        x_values, series = select_columns(rows, metric)
        rounded = {
            name: [round(v, 1 if metric == "abs_error" else 5) for v in col]
            for name, col in series.items()
        }
        blocks.append(_from_series(
            "cardinality", x_values, rounded,
            f"{title}, m={memory_bits} ({label})",
            log_x=True, log_y=(metric == "abs_error"),
        ))
    return blocks


def run_fig6() -> list[Block]:
    """Figs. 6: estimation error curves at m=10000."""
    return _accuracy_blocks(10_000, "Fig. 6")


def run_fig7() -> list[Block]:
    """Fig. 7: estimation error curves at m=5000."""
    return _accuracy_blocks(5_000, "Fig. 7")


def run_fig8() -> list[Block]:
    """Fig. 8: relative bias curves."""
    blocks = []
    for memory_bits in (10_000, 5_000):
        rows = accuracy_sweep(memory_bits)
        x_values, series = select_columns(rows, "bias")
        rounded = {n: [round(v, 5) for v in col] for n, col in series.items()}
        blocks.append(_from_series(
            "cardinality", x_values, rounded,
            f"relative bias, m={memory_bits} (Fig. 8)",
            log_x=True,
        ))
    return blocks


def run_table8() -> list[Block]:
    """Table VIII: CAIDA recording throughput (+ SMB by range)."""
    from repro.bench.caida import default_trace, materialize_streams

    trace = default_trace()
    streams = materialize_streams(trace)
    overall = recording_throughput(trace, streams=streams)
    top = Block(
        "CAIDA recording throughput (Table VIII)",
        ["estimator", "Mdps"],
        [list(item) for item in overall.items()],
    )
    bottom = _from_dict_rows(
        smb_throughput_by_range(trace, streams=streams),
        "SMB throughput by stream cardinality range",
    )
    return [top, bottom]


def run_table9() -> list[Block]:
    """Table IX: CAIDA query throughput."""
    rates = query_throughput()
    return [Block(
        "CAIDA query throughput (Table IX)",
        ["estimator", "queries/s"],
        [list(item) for item in rates.items()],
    )]


def run_table10() -> list[Block]:
    """Table X: CAIDA small-stream absolute error."""
    small, __ = absolute_error_by_group()
    return [_from_dict_rows(
        small, "CAIDA avg abs error, streams <= 1000 (Table X)"
    )]


def run_fig9() -> list[Block]:
    """Fig. 9: CAIDA large-stream error vs memory."""
    __, large = absolute_error_by_group()
    return [_from_dict_rows(
        large, "CAIDA avg abs error, streams > 1000 (Fig. 9)"
    )]


def run_extended() -> list[Block]:
    """Beyond the paper: accuracy of *every* estimator in the library."""
    rows = accuracy_sweep(
        5_000,
        cardinalities=(10_000, 100_000, 1_000_000),
        estimators=ALL_ESTIMATORS,
    )
    x_values, series = select_columns(rows, "rel_error", estimators=ALL_ESTIMATORS)
    rounded = {n: [round(v, 5) for v in col] for n, col in series.items()}
    return [_from_series(
        "cardinality", x_values, rounded,
        "mean relative error of every estimator, m=5000 (extended)",
    )]


def run_ablate_t() -> list[Block]:
    """Sensitivity of SMB error to the threshold T around the optimum."""
    from repro import SelfMorphingBitmap
    from repro.streams import distinct_items

    m, n = 5_000, 500_000
    optimum = optimal_threshold(m, 1_000_000)
    candidates = sorted(
        {max(4, int(optimum * f)) for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)}
    )
    rows = []
    for t in candidates:
        if t > m // 2:
            continue
        errors = []
        for seed in range(10):
            smb = SelfMorphingBitmap(m, threshold=t, seed=seed)
            smb.record_many(distinct_items(n, seed=seed + 900))
            errors.append(abs(smb.query() - n) / n)
        rows.append({
            "T": t,
            "m/T": m // t,
            "beta(0.1)": round(smb_error_bound(0.1, n, m, t), 4),
            "measured rel error": round(float(np.mean(errors)), 5),
            "note": "<-- T* (design n=1M)" if t == optimum else "",
        })
    return [_from_dict_rows(
        rows, "SMB error vs threshold T at m=5000, n=500k (ablation)"
    )]


def run_ablate_chunk() -> list[Block]:
    """Batch chunk size vs SMB recording throughput."""
    import repro.core.smb as smb_module
    from repro.bench.runner import mdps, time_recording
    from repro.streams import distinct_items

    items = distinct_items(1_000_000, seed=7)
    original = smb_module.BATCH_CHUNK
    rows = []
    try:
        for chunk in (256, 1024, 4096, 8192, 32768, 131072):
            smb_module.BATCH_CHUNK = chunk
            estimator = smb_module.SelfMorphingBitmap(5_000, threshold=384)
            seconds = time_recording(estimator, items)
            rows.append({"chunk": chunk, "Mdps": round(mdps(items.size, seconds), 2)})
    finally:
        smb_module.BATCH_CHUNK = original
    return [_from_dict_rows(rows, "SMB recording throughput vs batch chunk size")]


def run_ablate_hash() -> list[Block]:
    """Why the mixer matters: estimates with a weak (identity) hash."""
    import numpy as np

    from repro import HyperLogLog, SelfMorphingBitmap
    from repro.hashing import GeometricHash, UniformHash

    class _IdentityHash(UniformHash):
        """A deliberately broken hash: no mixing at all."""

        def hash_u64(self, x):
            return x

        def hash_array(self, x):
            return x

    class _IdentityGeometric(GeometricHash):
        def __init__(self):
            super().__init__(0)
            self._hash = _IdentityHash(0)

    n = 100_000
    sequential = np.arange(n, dtype=np.uint64)  # worst case for weak hashing
    rows = []
    for name, build in (
        ("SMB", lambda: SelfMorphingBitmap(5_000, threshold=384, seed=0)),
        ("HLL", lambda: HyperLogLog(5_000, seed=0)),
    ):
        sound = build()
        sound.record_many(sequential)
        weak = build()
        weak._position_hash = _IdentityHash(0)
        weak._geometric_hash = _IdentityGeometric()
        if hasattr(weak, "_route_hash"):
            weak._route_hash = _IdentityHash(0)
        weak.record_many(sequential)
        rows.append({
            "estimator": name,
            "splitmix64 rel error": round(abs(sound.query() - n) / n, 4),
            "identity-hash rel error": round(abs(weak.query() - n) / n, 4),
        })
    return [_from_dict_rows(
        rows,
        "Estimation error with a sound vs broken hash (sequential ids)",
    )]


def run_ablate_base() -> list[Block]:
    """MRB base-selection saturation threshold sensitivity."""
    from repro import MultiResolutionBitmap
    from repro.streams import distinct_items

    n = 500_000
    rows = []
    for saturation in (0.5, 0.7, 0.8, 0.9, 0.95, 0.99):
        errors = []
        for seed in range(10):
            mrb = MultiResolutionBitmap(416, 12, seed=seed, saturation=saturation)
            mrb.record_many(distinct_items(n, seed=seed + 901))
            errors.append(abs(mrb.query() - n) / n)
        rows.append({
            "saturation": saturation,
            "measured rel error": round(float(np.mean(errors)), 5),
        })
    return [_from_dict_rows(rows, "MRB error vs base-selection saturation")]


EXPERIMENTS: dict[str, tuple[Callable[[], list[Block]], str]] = {
    "table1": (run_table1, "measured recording/query overheads"),
    "table2": (run_table2, "optimal SMB threshold grid"),
    "table3": (run_table3, "MRB parameter grid"),
    "fig5a": (run_fig5a, "SMB error bound beta vs delta"),
    "fig5b": (run_fig5b, "bound comparison SMB/MRB/HLL++"),
    "table4": (run_table4, "recording throughput vs cardinality"),
    "table4-scalar": (run_table4_scalar, "per-item recording throughput"),
    "table5": (run_table5, "query throughput vs memory"),
    "table6": (run_table6, "query throughput vs cardinality"),
    "table7": (run_table7, "MRB query throughput vs cardinality"),
    "fig6": (run_fig6, "estimation error, m=10000"),
    "fig7": (run_fig7, "estimation error, m=5000"),
    "fig8": (run_fig8, "relative bias"),
    "table8": (run_table8, "CAIDA recording throughput"),
    "table9": (run_table9, "CAIDA query throughput"),
    "table10": (run_table10, "CAIDA error, small streams"),
    "fig9": (run_fig9, "CAIDA error vs memory, large streams"),
    "extended": (run_extended, "accuracy of every estimator in the library"),
    "ablate-t": (run_ablate_t, "SMB threshold sensitivity"),
    "ablate-chunk": (run_ablate_chunk, "SMB batch chunk size sweep"),
    "ablate-base": (run_ablate_base, "MRB base-selection sensitivity"),
    "ablate-hash": (run_ablate_hash, "hash quality: splitmix64 vs identity"),
}


def experiments_main(argv: list[str]) -> int:
    """``repro <experiment>``: run experiments; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
        epilog="Set REPRO_SCALE (default ~0.01) to scale workload sizes; "
        "REPRO_SCALE=1.0 runs the paper-scale experiments. "
        "'repro engine --help' documents the sharded ingestion engine; "
        "'repro analyze --help' the static invariant checkers; "
        "'repro stats --help' the metrics-snapshot viewer; "
        "'repro serve --help' the network cardinality server; "
        "'repro agg --help' the cross-node sketch aggregator.",
    )
    parser.add_argument(
        "experiment",
        choices=["list", "all", *EXPERIMENTS],
        help="experiment id (see DESIGN.md §3), 'list', or 'all'",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write the results as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render figure experiments as ASCII line charts too",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (__, description) in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {description}")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    collected: dict[str, list[dict[str, object]]] = {}
    for name in names:
        runner, description = EXPERIMENTS[name]
        print(f"== {name}: {description} ==")
        blocks = runner()
        collected[name] = [block.to_json() for block in blocks]
        for block in blocks:
            print(block.render(with_chart=args.chart))
            print()

    if args.json:
        payload = json.dumps(collected, indent=2, default=str)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload)
            print(f"wrote JSON results to {args.json}")
    return 0

