"""Theoretical error bounds (§IV and Fig. 5 of the paper).

**SMB (Theorem 3).** The recording process is a sum of independent
geometric random variables: ``X_i^j`` counts the distinct arrivals
needed to push the round-``i`` ones count from ``j-1`` to ``j``, with
success probability ``(m_i - j + 1) / (2^i · m)`` (eq. (14)). Janson's
tail bounds for sums of geometrics give

    Pr(|n - n̂| / n >= δ) <= e^{-p* n (δ - ln(1+δ))} + e^{-p* n (-δ - ln(1-δ))}

where ``p*`` is the smallest success probability among the variables,
reached by the last bit of the last round:

    p* = (m_r - U_r + 1) / (2^r · m).

The worst-case (r, U_r) for a given target cardinality follows the
theorem: ``r`` is the largest round with ``n(1+δ) >= S[r]`` and ``U_r``
the largest ones count reachable by an estimate of ``n(1+δ)``. Using
the second-order Taylor expansion ``±δ - ln(1±δ) ≈ δ²/2`` collapses the
two exponentials into the paper's single ``2e^{-p* n δ²/2}`` form;
both variants are available (``exact=``).

**MRB (Fig. 5b).** The paper bounds MRB through Chebyshev on its
standard error. We derive the standard error from first principles: the
estimate sums per-component linear-counting estimates whose variances
are Whang et al.'s ``b (e^ρ - ρ - 1)`` at fill ``ρ``, scaled by the
base sampling factor.

**HLL++ (Fig. 5b).** Chebyshev on the published standard error
``1.04 / sqrt(t)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.smb import round_constants


def _worst_case_counters(
    s: np.ndarray, n: float, m: int, t: int, delta: float
) -> tuple[int, int]:
    """The Theorem-3 worst-case (r, U_r) for target cardinality n.

    ``s`` is ``round_constants(m, t)``, passed in so a caller that
    evaluates several functions of one (m, T) computes it once.
    """
    target = n * (1.0 + delta)
    # r: the largest round index whose prefix estimate stays below target.
    r = 0
    for candidate in range(len(s) - 1, -1, -1):
        if math.isfinite(s[candidate]) and s[candidate] <= target:
            r = candidate
            break
    m_r = m - r * t
    if m_r <= 0:
        return r, t
    # U_r: largest ones count with estimate(r, U_r) <= target, capped at
    # T (eq. below Theorem 3) and at the logical bitmap size.
    budget = (target - s[r]) / math.ldexp(m, r)
    u_r = int(math.floor(m_r * (1.0 - math.exp(-budget))))
    return r, max(0, min(u_r, t, m_r - 1))


def smb_error_bound(
    delta: float,
    n: float,
    memory_bits: int,
    threshold: int,
    exact: bool = False,
) -> float:
    """Theorem 3: β = Pr(|n - n̂|/n <= δ) for an SMB configuration.

    Parameters
    ----------
    delta:
        Relative-error tolerance δ ∈ (0, 1).
    n:
        True stream cardinality.
    memory_bits, threshold:
        The SMB configuration (m, T).
    exact:
        Use the exact Janson exponents instead of the paper's δ²/2
        Taylor form.

    Returns the probability lower bound β (clamped to [0, 1]).
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    m, t = int(memory_bits), int(threshold)
    return _smb_beta(round_constants(m, t), delta, n, m, t, exact)


def _smb_beta(
    s: np.ndarray, delta: float, n: float, m: int, t: int, exact: bool = False
) -> float:
    """:func:`smb_error_bound` for validated arguments and ``s = S(m, T)``."""
    r, u_r = _worst_case_counters(s, n, m, t, delta)
    m_r = m - r * t
    if m_r <= 0:
        return 0.0
    p_star = (m_r - u_r + 1) / math.ldexp(m, r)
    if exact:
        upper = math.exp(-p_star * n * (delta - math.log1p(delta)))
        lower = math.exp(-p_star * n * (-delta - math.log1p(-delta)))
        beta = 1.0 - upper - lower
    else:
        beta = 1.0 - 2.0 * math.exp(-p_star * n * delta * delta / 2.0)
    return max(0.0, min(1.0, beta))


def _linear_counting_variance(bits: int, load: float) -> float:
    """Whang et al.'s variance of the b-bit linear counter at fill ρ.

    ``Var(n̂) ≈ b (e^ρ - ρ - 1)`` where ``ρ = n / b``. For loads past
    saturation the variance formula explodes, which correctly penalizes
    configurations that overfill a component.
    """
    return bits * (math.exp(load) - load - 1.0)


def mrb_standard_error(
    n: float, component_bits: int, num_components: int
) -> float:
    """Standard error σ(n̂/n) of MRB for a stream of cardinality n.

    Derived by summing the per-component linear-counting variances at
    their expected fills (component j receives ``n·2^-(j+1)`` distinct
    items, the last one ``n·2^-(k-1)``) above the expected base level,
    scaling by the base sampling factor 2^base, and adding the binomial
    sampling variance of which items reach the base level at all:
    ``Var ≈ n·(2^base - 1)`` (an unbiased 2^-base sample scaled back up).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    b, k = int(component_bits), int(num_components)
    # Expected distinct items per component.
    arrivals = [n / 2.0 ** min(j + 1, k - 1) for j in range(k)]
    # Expected base: the finest component whose fill stays below ~90%.
    base = k - 1
    for j in range(k):
        expected_fill = 1.0 - math.exp(-arrivals[j] / b)
        if expected_fill <= 0.9:
            base = j
            break
    counting_variance = sum(
        _linear_counting_variance(b, min(arrivals[j] / b, 30.0))
        for j in range(base, k)
    )
    sampling_variance = n * (math.ldexp(1.0, base) - 1.0)
    total = math.ldexp(counting_variance, 2 * base) + sampling_variance
    return math.sqrt(total) / n


def mrb_error_bound(
    delta: float, n: float, component_bits: int, num_components: int
) -> float:
    """Chebyshev bound β for MRB (Fig. 5b)."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    sigma = mrb_standard_error(n, component_bits, num_components)
    return max(0.0, min(1.0, 1.0 - (sigma / delta) ** 2))


def hll_standard_error(num_registers: int) -> float:
    """HLL++'s published standard error 1.04/√t."""
    if num_registers <= 0:
        raise ValueError(f"num_registers must be positive, got {num_registers}")
    return 1.04 / math.sqrt(num_registers)


def hll_error_bound(delta: float, memory_bits: int) -> float:
    """Chebyshev bound β for HLL++ at an m-bit budget (t = m/5)."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    sigma = hll_standard_error(int(memory_bits) // 5)
    return max(0.0, min(1.0, 1.0 - (sigma / delta) ** 2))


def smb_round_loads(
    n: float, memory_bits: int, threshold: int
) -> tuple[int, float]:
    """Expected terminal (round r, ones count v) for a stream of size n.

    Inverts the S array: r is the last round whose prefix estimate stays
    below n, and v makes the round-r estimate account for the rest.
    """
    m, t = int(memory_bits), int(threshold)
    s = round_constants(m, t)
    r = 0
    for candidate in range(len(s) - 1, -1, -1):
        if math.isfinite(s[candidate]) and s[candidate] <= n:
            r = candidate
            break
    m_r = m - r * t
    if m_r <= 0:
        return r, 0.0
    budget = (n - s[r]) / math.ldexp(m, r)
    v = m_r * (1.0 - math.exp(-budget))
    return r, min(v, float(t))


def smb_standard_error(
    n: float, memory_bits: int, threshold: int
) -> float:
    """Delta-method standard error σ(n̂/n) of SMB.

    Complements Theorem 3's tail bound with a variance model: the
    estimate sums per-round linear-counting estimates over the logical
    bitmaps, each scaled by ``2^i · m/m_i``, plus the binomial sampling
    variance of which items survive Step 1 in the terminal round
    (``≈ n(2^r − 1)``, the analogue of MRB's base-sampling term).
    Round ``i``'s linear counter has ``m_i`` bits and absorbs
    ``ρ_i = -ln(1 − U_i/m_i)`` load, giving Whang variance
    ``m_i (e^{ρ_i} − ρ_i − 1)``.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    m, t = int(memory_bits), int(threshold)
    r, v = smb_round_loads(n, m, t)
    variance = 0.0
    for i in range(r + 1):
        m_i = m - i * t
        if m_i <= 0:
            break
        ones = t if i < r else v
        fill = min(ones / m_i, 1.0 - 1.0 / m_i)
        load = -math.log(1.0 - fill)
        scale = math.ldexp(m / m_i, i)  # 2^i · m/m_i
        variance += scale * scale * _linear_counting_variance(m_i, load)
    variance += n * (math.ldexp(1.0, r) - 1.0)
    return math.sqrt(variance) / n


def beta_curve(
    deltas: np.ndarray | list[float],
    n: float,
    memory_bits: int,
    threshold: int,
    exact: bool = False,
) -> np.ndarray:
    """Vector form of :func:`smb_error_bound` over a δ grid (Fig. 5a)."""
    return np.asarray(
        [
            smb_error_bound(float(d), n, memory_bits, threshold, exact=exact)
            for d in np.asarray(deltas, dtype=np.float64)
        ]
    )
