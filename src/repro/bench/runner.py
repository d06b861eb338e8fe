"""Experiment plumbing: estimator names, workload scaling, timing.

Every experiment builds its estimators through :func:`make_estimator`
(re-exported from :mod:`repro.estimators.registry`), which applies
each class's ``for_workload`` sizing rule:

- **MRB** is dimensioned by Table III (``mrb_parameters``);
- **SMB** uses the optimal threshold of §IV-B (``optimal_threshold``);
- **KMV** keeps one 64-bit value per 64 bits of budget;
- **FM**, **HLL++**, **HLL-TailC** (and the extra baselines) divide the
  memory budget into their registers as §II-B describes.

Workload sizes honour the ``REPRO_SCALE`` environment variable so the
full suite runs in minutes by default and at paper scale on request.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Sequence

import numpy as np

from repro.estimators import CardinalityEstimator
from repro.estimators.registry import (  # noqa: F401  (re-exported)
    ALL_ESTIMATORS,
    make_estimator,
)

#: The five estimators every table/figure in the paper compares.
PAPER_ESTIMATORS = ("MRB", "FM", "HLL++", "HLL-TailC", "SMB")


def repro_scale(default: float = 1.0) -> float:
    """Workload scale factor from the REPRO_SCALE environment variable."""
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return default
    scale = float(raw)
    if scale <= 0:
        raise ValueError(f"REPRO_SCALE must be positive, got {raw!r}")
    return scale


def time_call(fn: Callable[[], object], min_seconds: float = 0.05) -> float:
    """Seconds per call of ``fn``, repeated until ``min_seconds`` elapsed."""
    # Warm-up call (JIT-free Python, but populates caches/allocations).
    fn()
    calls = 0
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < min_seconds:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
    return elapsed / calls


def time_recording(
    estimator: CardinalityEstimator,
    items: np.ndarray,
    warmup: CardinalityEstimator | None = None,
) -> float:
    """Seconds to record ``items`` through the batch path (one pass).

    When a ``warmup`` twin is supplied, a slice of the workload is
    recorded into it first so NumPy's one-time ufunc dispatch setup does
    not bill the measured estimator (it costs ~15ms, which would swamp
    small workloads).
    """
    if warmup is not None:
        warmup.record_many(items[: min(items.size, 4096)])
    start = time.perf_counter()
    estimator.record_many(items)
    return time.perf_counter() - start


def mdps(items: int, seconds: float) -> float:
    """Million data items per second (the paper's throughput unit)."""
    if seconds <= 0:
        return float("inf")
    return items / seconds / 1e6


def geometric_cardinalities(
    low: int, high: int, points: int
) -> Sequence[int]:
    """A log-spaced cardinality grid, deduplicated and sorted."""
    grid = np.geomspace(low, high, points)
    return sorted({int(round(x)) for x in grid})
