"""Parameter tuning: the paper's Table II (optimal SMB threshold T) and
Table III (recommended MRB dimensioning).

**SMB threshold (§IV-B).** The paper derives the optimal integer ratio
``m/T`` by numerical computing: among all ratios whose estimation range
accommodates the design cardinality, pick the one maximizing the
Theorem-3 bound β. :func:`optimal_threshold` implements exactly that
search; :func:`optimal_threshold_table` regenerates Table II for any
grid of (m, n). The search is a pure function of (m, n, δ), so its
result is memoized per process in a bounded cache: every SMB, shard and
tenant of one size after the first is built without searching again.

**MRB dimensioning (Table III).** The paper ships a lookup table of
``(m/k, k)`` recommended by the MRB authors for each memory budget and
expected cardinality; we embed the table verbatim and fall back to
Estan-style analytic dimensioning (smallest k whose estimation range
covers n) for budgets the table does not list.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.core.smb import round_constants
from repro.core.theory import _smb_beta

#: Default δ at which β is maximized when choosing T (the paper's Fig. 5
#: anchors use δ = 0.1).
DEFAULT_DELTA = 0.1

#: Safety factor: the chosen configuration's estimation range must cover
#: the design cardinality with headroom.
RANGE_HEADROOM = 2.0


def smb_max_estimate(memory_bits: int, threshold: int) -> float:
    """Largest finite estimate of an (m, T) SMB (§III-B)."""
    m, t = int(memory_bits), int(threshold)
    return _max_estimate(round_constants(m, t), m, t)


def _max_estimate(s: np.ndarray, m: int, t: int) -> float:
    """:func:`smb_max_estimate` given ``s = round_constants(m, t)``."""
    last = m // t - 1 if m % t == 0 else m // t
    m_last = m - last * t
    return float(s[last]) + math.ldexp(m, last) * math.log(max(1, m_last))


def optimal_threshold(
    memory_bits: int,
    design_cardinality: int,
    delta: float = DEFAULT_DELTA,
) -> int:
    """Optimal SMB threshold T for an m-bit budget and design cardinality.

    Implements the paper's §IV-B procedure: search integer ratios
    ``m/T``, keep those whose range covers ``design_cardinality`` (with
    headroom), and maximize the Theorem-3 β at the given δ. A
    configuration chosen for cardinality ``n`` is also valid for any
    smaller stream (the paper notes the optimum for ``n = n_max``
    applies to ``n ∈ [0, n_max]``).

    The arguments are checked on every call; the search result is
    memoized per (m, n, δ) for the 256 most recently used sizes.
    """
    m = int(memory_bits)
    n = int(design_cardinality)
    delta = float(delta)
    if m < 4:
        raise ValueError(f"memory_bits must be >= 4, got {m}")
    if n < 1:
        raise ValueError(f"design_cardinality must be >= 1, got {n}")
    if not 0 < delta < 1:  # also rejects NaN
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return _threshold_search(m, n, delta)


# Bounded: a server's tenants share one or two sizes, and Table II has 44.
@functools.lru_cache(maxsize=256)
def _threshold_search(m: int, n: int, delta: float) -> int:
    """The §IV-B search behind :func:`optimal_threshold` (validated args)."""
    best_t = None
    best_beta = -1.0
    fallback_t = None  # largest-range config, used if nothing covers n
    fallback_range = -1.0
    for ratio in range(2, min(m, 512) + 1):
        t = m // ratio
        if t < 1:
            break
        if m // t != ratio:  # skip duplicate T values
            continue
        s = round_constants(m, t)  # once per T, shared by both helpers
        reach = _max_estimate(s, m, t)
        if reach > fallback_range:
            fallback_range, fallback_t = reach, t
        if reach < RANGE_HEADROOM * n:
            continue
        beta = _smb_beta(s, delta, n, m, t)
        if beta > best_beta:
            best_beta, best_t = beta, t
    if best_t is None:
        # No ratio covers n: the budget is simply too small; return the
        # configuration with the largest range (clamped estimates).
        assert fallback_t is not None
        return fallback_t
    return best_t


def optimal_threshold_table(
    memory_grid: list[int] | None = None,
    cardinality_grid: list[int] | None = None,
    delta: float = DEFAULT_DELTA,
) -> dict[tuple[int, int], int]:
    """Regenerate the paper's Table II: optimal m/T per (m, n).

    Returns ``{(m, n): T}``. Defaults to the paper's grid: m ∈ {1000,
    2500, 5000, 10000}, n from 80k to 1M.
    """
    ms = memory_grid or [10_000, 5_000, 2_500, 1_000]
    ns = cardinality_grid or [
        1_000_000, 900_000, 800_000, 700_000, 600_000,
        500_000, 400_000, 300_000, 200_000, 100_000, 80_000,
    ]
    return {
        (m, n): optimal_threshold(m, n, delta=delta) for m in ms for n in ns
    }


@dataclass(frozen=True)
class MRBParameters:
    """An MRB dimensioning: component size m/k and component count k."""

    component_bits: int
    num_components: int

    @property
    def total_bits(self) -> int:
        return self.component_bits * self.num_components


#: Table III of the paper: {(memory m, cardinality n): (m/k, k)}.
#: Rows are the paper's cardinality grid; columns its memory budgets.
TABLE_III: dict[tuple[int, int], MRBParameters] = {
    (m, n): MRBParameters(b, k)
    for n, per_memory in {
        1_000_000: {10_000: (909, 11), 5_000: (416, 12), 2_500: (178, 14), 1_000: (66, 15)},
        900_000: {10_000: (909, 11), 5_000: (416, 12), 2_500: (192, 13), 1_000: (66, 15)},
        800_000: {10_000: (909, 11), 5_000: (416, 12), 2_500: (192, 13), 1_000: (66, 15)},
        700_000: {10_000: (909, 11), 5_000: (416, 12), 2_500: (192, 13), 1_000: (71, 14)},
        600_000: {10_000: (1000, 10), 5_000: (416, 12), 2_500: (192, 13), 1_000: (71, 14)},
        500_000: {10_000: (1000, 10), 5_000: (454, 11), 2_500: (208, 12), 1_000: (71, 14)},
        400_000: {10_000: (1000, 10), 5_000: (454, 11), 2_500: (208, 12), 1_000: (71, 14)},
        300_000: {10_000: (1111, 9), 5_000: (500, 10), 2_500: (208, 12), 1_000: (76, 13)},
        200_000: {10_000: (1111, 9), 5_000: (500, 10), 2_500: (227, 11), 1_000: (83, 12)},
        100_000: {10_000: (1428, 7), 5_000: (555, 9), 2_500: (250, 10), 1_000: (90, 11)},
        80_000: {10_000: (1428, 7), 5_000: (625, 8), 2_500: (277, 9), 1_000: (90, 11)},
    }.items()
    for m, (b, k) in per_memory.items()
}

_TABLE_MEMORIES = sorted({m for m, __ in TABLE_III})
_TABLE_CARDINALITIES = sorted({n for __, n in TABLE_III})


def _analytic_mrb_parameters(memory_bits: int, n: int) -> MRBParameters:
    """Estan-style fallback: smallest k whose range covers n with margin."""
    m = int(memory_bits)
    for k in range(3, 33):
        b = m // k
        if b < 8:
            break
        # MRB's maximum estimate is 2^{k-1}·b·ln b (§II-B); require 2x
        # headroom so the top component is not the working one.
        if math.ldexp(b * math.log(b), k - 1) >= RANGE_HEADROOM * n:
            return MRBParameters(b, k)
    # Budget cannot cover n: use the widest-range sane configuration.
    k = max(3, min(32, m // 8))
    return MRBParameters(m // k, k)


def mrb_parameters(memory_bits: int, expected_cardinality: int) -> MRBParameters:
    """MRB dimensioning per the paper's Table III.

    Exact lookups for the paper's (m, n) grid; for other budgets the
    analytic fallback reproduces the same dimensioning rule.
    """
    m, n = int(memory_bits), int(expected_cardinality)
    if m < 24:
        raise ValueError(f"memory_bits must be >= 24 for MRB, got {m}")
    if n < 1:
        raise ValueError(f"expected_cardinality must be >= 1, got {n}")
    if m in _TABLE_MEMORIES:
        # Smallest tabulated cardinality that still covers n.
        for n_row in _TABLE_CARDINALITIES:
            if n_row >= n:
                return TABLE_III[(m, n_row)]
        return TABLE_III[(m, _TABLE_CARDINALITIES[-1])]
    return _analytic_mrb_parameters(m, n)
