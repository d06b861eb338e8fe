"""HLL-TailC+: 3-bit tail-cut registers with an offline MLE query.

§II-B of the paper: "More aggressively, HLL-TailC+ reduces the size of
each LogLog register from 5 bits to 3 bits at the cost of expensive
query operations, which can only be done offline." The paper therefore
benchmarks HLL-TailC, not TailC+; we ship TailC+ as the documented
extension so the whole family is available.

Recording mirrors :class:`~repro.estimators.hll_tailcut.HyperLogLogTailCut`
with offsets saturating at 7 instead of 15 — aggressive truncation that
loses enough tail information to visibly bias the cheap harmonic-mean
estimate. The *offline* query recovers accuracy by maximum-likelihood
estimation over the register multiset: with ``n`` distinct items split
uniformly over ``t`` registers, a register's value satisfies

    P(Y <= y) = (1 - 2^-y)^(n/t)

so each observed offset contributes ``P(Y = B + y)`` (or a censored
tail term ``P(Y >= B + 7)`` for saturated offsets), and the MLE scans
``n`` over a log grid — hundreds of times the cost of Algorithm 2's two
counter reads, which is exactly the trade the paper describes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.estimators.base import CardinalityEstimator
from repro.estimators.hll import MAX_RANK
from repro.estimators.state import REGISTERS, Array, Field, SketchState
from repro.hashing import GeometricHash, UniformHash
from repro.kernels import (
    HashPlane,
    geometric_request,
    positions_request,
)

REGISTER_BITS = 3
OFFSET_MAX = (1 << REGISTER_BITS) - 1  # 7


def _log_cdf(y: int, per_register: float) -> float:
    """P(register <= y) under Poissonization of the per-register load.

    The number of items routed to one register is ~Poisson(n/t); each
    item exceeds rank ``y`` with probability ``2^-y``, so the maximum is
    at most ``y`` iff the thinned Poisson(n/t · 2^-y) count is zero:
    ``P(Y <= y) = exp(-(n/t)·2^-y)``.
    """
    if y < 0:
        return 0.0
    return math.exp(-per_register * 2.0 ** -y)


def _log_prob_value(y: int, per_register: float) -> float:
    """log P(register == y) for n/t = per_register items."""
    if y <= 0:
        return -per_register  # log P(Y = 0) = -(n/t)
    value = _log_cdf(y, per_register) - _log_cdf(y - 1, per_register)
    return math.log(max(value, 1e-300))


def _log_prob_tail(y: int, per_register: float) -> float:
    """log P(register >= y) — censored term for saturated offsets."""
    return math.log(max(1.0 - _log_cdf(y - 1, per_register), 1e-300))


class HyperLogLogTailCutPlus(CardinalityEstimator):
    """HLL-TailC+ estimator (see module docstring).

    Parameters
    ----------
    memory_bits:
        Total budget ``m``; uses ``t = m // 3`` registers.
    seed:
        Seed for the routing and geometric hashes.
    """

    name = "HLL-TailC+"

    state = SketchState(
        b"HTP1",
        header=(
            Field("t", init="memory_bits", scale=REGISTER_BITS),
            Field("seed"),
            Field("base", kind="counter"),
        ),
        arrays=(Array("_offsets", np.uint8, length="t", family=REGISTERS),),
    )

    def __init__(self, memory_bits: int, seed: int = 0) -> None:
        super().__init__()
        if memory_bits < REGISTER_BITS:
            raise ValueError(
                f"memory_bits must be >= {REGISTER_BITS}, got {memory_bits}"
            )
        self.t = int(memory_bits) // REGISTER_BITS
        self.seed = int(seed)
        self.base = 0
        self._offsets = np.zeros(self.t, dtype=np.uint8)
        self._route_hash = UniformHash(seed)
        self._geometric_hash = GeometricHash(seed + 0x47454F)

    # ------------------------------------------------------------------
    # Recording (same tail-cut mechanics, 3-bit offsets)
    # ------------------------------------------------------------------
    def _normalize(self) -> None:
        low = int(self._offsets.min())
        if low > 0:
            self.base += low
            self._offsets -= np.uint8(low)

    def _record_u64(self, value: int) -> None:
        self.hash_ops += 2
        self.bits_accessed += REGISTER_BITS
        register = self._route_hash.hash_u64(value) % self.t
        rank = min(self._geometric_hash.value_u64(value), MAX_RANK - 1) + 1
        offset = rank - self.base
        if offset <= int(self._offsets[register]):
            return
        self._offsets[register] = min(offset, OFFSET_MAX)
        self._normalize()

    def plane_requests(self) -> tuple:
        """Register-routing hash and geometric rank hash."""
        return (
            positions_request(self._route_hash.seed, self.t),
            geometric_request(self._geometric_hash.seed),
        )

    def _record_plane(self, plane: HashPlane) -> None:
        self.hash_ops += 2 * plane.size
        self.bits_accessed += REGISTER_BITS * plane.size
        registers = plane.positions(self._route_hash.seed, self.t)
        ranks = (
            np.minimum(
                plane.geometric(self._geometric_hash.seed).astype(
                    np.int64, copy=False
                ),
                MAX_RANK - 1,
            )
            + 1
        )
        # Process in chunks and re-normalize between them: with only 3
        # offset bits, applying a huge batch against a stale base would
        # clip the rank distribution's entire upper half, whereas the
        # sequential algorithm's base keeps pace with the stream.
        chunk_size = max(4 * self.t, 4096)
        # analysis: allow(purity.loop) -- chunk-stepping loop, O(size/chunk)
        for start in range(0, plane.size, chunk_size):
            stop = start + chunk_size
            offsets = np.clip(
                ranks[start:stop] - self.base, 0, OFFSET_MAX
            ).astype(np.uint8, copy=False)
            np.maximum.at(self._offsets, registers[start:stop], offsets)
            self._normalize()

    # ------------------------------------------------------------------
    # Offline MLE query
    # ------------------------------------------------------------------
    def _log_likelihood(self, n: float) -> float:
        per_register = n / self.t
        counts = np.bincount(self._offsets, minlength=OFFSET_MAX + 1)
        total = 0.0
        for offset, count in enumerate(counts.tolist()):
            if count == 0:
                continue
            y = self.base + offset
            if offset == OFFSET_MAX:
                total += count * _log_prob_tail(y, per_register)
            else:
                total += count * _log_prob_value(y, per_register)
        return total

    def query(self) -> float:
        """Offline maximum-likelihood estimate.

        Golden-section search over log n in a window around the crude
        harmonic seed — hundreds of likelihood evaluations per query, by
        design (this is the "expensive query" variant).
        """
        self.bits_accessed += self.t * REGISTER_BITS + 64
        if self.base == 0 and not self._offsets.any():
            return 0.0
        # Seed from the implied register mean, then bracket generously.
        implied = self.base + float(self._offsets.mean())
        seed_n = max(1.0, 0.7 * self.t * 2.0 ** implied)
        low, high = math.log(seed_n / 64.0), math.log(seed_n * 64.0)
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = low, high
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        fc, fd = self._log_likelihood(math.exp(c)), self._log_likelihood(math.exp(d))
        for __ in range(60):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = self._log_likelihood(math.exp(c))
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = self._log_likelihood(math.exp(d))
        return math.exp((a + b) / 2.0)

    def memory_bits(self) -> int:
        return self.t * REGISTER_BITS

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    def merge(self, other: CardinalityEstimator) -> None:
        self._check_mergeable(other)
        assert isinstance(other, HyperLogLogTailCutPlus)
        mine = self._offsets.astype(np.int64) + self.base
        theirs = other._offsets.astype(np.int64) + other.base
        merged = np.maximum(mine, theirs)
        self.base = int(merged.min())
        self._offsets = np.clip(merged - self.base, 0, OFFSET_MAX).astype(np.uint8)
