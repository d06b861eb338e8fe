"""Percentiles with their sample counts, quartiles, and host-noise readings."""

from __future__ import annotations

import statistics
import time

import numpy as np


def summary(values, scale: float = 1.0) -> dict[str, float]:
    """Median, p90 and p99 of ``values`` times ``scale``, with the count.

    A percentile is reported only with the number of samples it rests
    on; p99 of fewer than 1000 samples has fewer than ten beyond it and
    should be read as a maximum.
    """
    data = np.asarray(values, dtype=float) * scale
    if data.size == 0:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "n": 0}
    p50, p90, p99 = np.percentile(data, [50, 90, 99])
    return {"p50": float(p50), "p90": float(p90), "p99": float(p99),
            "n": int(data.size)}


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return q1, q2, q3


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice],
    # where guest time is already counted in user.
    return fields[7], sum(fields[:8])


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time stolen by the hypervisor between two readings, in %."""
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def host_metrics(steal: float, calibration_s: float) -> dict[str, tuple]:
    """The host-noise readings as per-layer metrics ``(value, unit)``."""
    return {"host.steal_pct": (steal, "%"),
            "host.calibration_ms": (1e3 * calibration_s, "ms")}


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (a host speed reading)."""
    began = time.perf_counter()
    accumulator = 0
    for index in range(2_000_000):
        accumulator += index * index & 0xFF
    elapsed = time.perf_counter() - began
    if accumulator < 0:  # keeps the loop from being optimized away
        raise AssertionError
    return elapsed
