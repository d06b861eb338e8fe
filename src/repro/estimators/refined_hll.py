"""Refined HLL: a LogLog-family estimator with a learned coefficient.

§II-B of the paper describes "Refined HLL" as using a modified
geometric hash whose level probabilities decay differently from the
standard ``2^-(i+1)`` ladder, with the consequence that the estimate's
correction coefficient is no longer a closed-form constant like
HLL++'s α_t — it must be *learned from a portion of the data stream*,
"making it impractical for online cardinality estimation". The paper
accordingly excludes it from the evaluation; we ship it as the
documented extension so the comparison can be run.

Our implementation uses a geometric hash of configurable base ``b``
(``P(G' = i) = (1 - 1/b)·b^-i``; ``b = 2`` recovers the standard
ladder, larger bases give coarser, cheaper levels) and the mean-based
estimate ``n̂ = C · t · b^mean(M)``. The coefficient ``C`` is learned by
:meth:`learn` from a calibration stream with known cardinality — the
online-impracticality the paper criticizes, reproduced faithfully:
until ``learn`` has been called, :meth:`query` raises.
"""

from __future__ import annotations

import math

import numpy as np

from repro.estimators.base import CardinalityEstimator
from repro.estimators.state import REGISTERS, Array, Field, SketchState
from repro.hashing import UniformHash, trailing_zeros
from repro.kernels import (
    HashPlane,
    positions_request,
    uniform_request,
)

REGISTER_MAX = 31

_U64_BITS = 64


class RefinedHyperLogLog(CardinalityEstimator):
    """Refined HLL with a learned correction coefficient.

    Parameters
    ----------
    memory_bits:
        Total budget; 5-bit registers, ``t = memory_bits // 5``.
    base:
        Geometric base ``b > 1`` of the modified hash ladder.
    seed:
        Seed for the routing and level hashes.
    """

    name = "RefinedHLL"

    state = SketchState(
        b"RHL1",
        header=(
            Field("t", init="memory_bits", scale=5),
            Field("seed"),
            Field("base", "d"),
            Field("coefficient", "d", kind="counter"),  # NaN while unlearned
        ),
        arrays=(Array("_registers", np.uint8, length="t", family=REGISTERS),),
    )

    def __init__(self, memory_bits: int, base: float = 4.0, seed: int = 0) -> None:
        super().__init__()
        if memory_bits < 5:
            raise ValueError(f"memory_bits must be >= 5, got {memory_bits}")
        if base <= 1:
            raise ValueError(f"base must exceed 1, got {base}")
        self.t = int(memory_bits) // 5
        self.base = float(base)
        self.seed = int(seed)
        self.coefficient: float | None = None
        self._registers = np.zeros(self.t, dtype=np.uint8)
        self._route_hash = UniformHash(seed)
        self._level_hash = UniformHash(seed + 0x4C45564C)  # "LEVL"
        # Level i iff uniform(0,1) in [b^-(i+1), b^-i): precompute the
        # log-base factor for the vectorized level computation.
        self._log_base = math.log(self.base)

    # ------------------------------------------------------------------
    # Modified geometric hash
    # ------------------------------------------------------------------
    def _level_u64(self, hashed: int) -> int:
        """G'(x): level i with probability (1 - 1/b)·b^-i."""
        if self.base == 2.0:
            return trailing_zeros(hashed)
        # Map the 64-bit hash to u in (0, 1]; level = floor(-log_b u).
        u = (hashed + 1) / 2.0 ** _U64_BITS
        return min(int(-math.log(u) / self._log_base), REGISTER_MAX - 1)

    def _level_array(self, hashed: np.ndarray) -> np.ndarray:
        u = (hashed.astype(np.float64) + 1.0) / 2.0 ** _U64_BITS
        levels = np.floor(-np.log(u) / self._log_base)
        return np.minimum(levels, REGISTER_MAX - 1).astype(np.uint8)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record_u64(self, value: int) -> None:
        self.hash_ops += 2
        self.bits_accessed += 5
        register = self._route_hash.hash_u64(value) % self.t
        rank = self._level_u64(self._level_hash.hash_u64(value)) + 1
        if rank > self._registers[register]:
            self._registers[register] = rank

    def plane_requests(self) -> tuple:
        """Register-routing hash and the level hash's uniform input."""
        return (
            positions_request(self._route_hash.seed, self.t),
            uniform_request(self._level_hash.seed),
        )

    def _record_plane(self, plane: HashPlane) -> None:
        self.hash_ops += 2 * plane.size
        self.bits_accessed += 5 * plane.size
        registers = plane.positions(self._route_hash.seed, self.t)
        ranks = self._level_array(plane.uniform(self._level_hash.seed)) + np.uint8(1)
        np.maximum.at(self._registers, registers, ranks)

    # ------------------------------------------------------------------
    # Coefficient learning + querying
    # ------------------------------------------------------------------
    def raw_statistic(self) -> float:
        """The uncorrected statistic t · b^mean(M)."""
        return self.t * self.base ** float(self._registers.mean())

    def learn(self, calibration_items, true_cardinality: int) -> float:
        """Learn the correction coefficient from a labelled stream.

        Records ``calibration_items`` into a scratch sketch with the
        same configuration and sets ``coefficient`` so the estimate is
        unbiased at ``true_cardinality``. Returns the coefficient.
        """
        if true_cardinality < 1:
            raise ValueError(
                f"true_cardinality must be >= 1, got {true_cardinality}"
            )
        scratch = RefinedHyperLogLog(
            self.t * 5, base=self.base, seed=self.seed
        )
        scratch.record_many(calibration_items)
        statistic = scratch.raw_statistic()
        if statistic <= 0:
            raise ValueError("calibration stream produced an empty sketch")
        self.coefficient = true_cardinality / statistic
        return self.coefficient

    def query(self) -> float:
        if self.coefficient is None:
            raise RuntimeError(
                "RefinedHyperLogLog needs learn() before query(): its "
                "coefficient is not a closed-form constant (the online-"
                "impracticality §II-B describes)"
            )
        self.bits_accessed += self.t * 5
        return self.coefficient * self.raw_statistic()

    def memory_bits(self) -> int:
        return self.t * 5

    def merge(self, other: CardinalityEstimator) -> None:
        self._check_mergeable(other)
        assert isinstance(other, RefinedHyperLogLog)
        np.maximum(self._registers, other._registers, out=self._registers)

    @property
    def registers(self) -> np.ndarray:
        view = self._registers.view()
        view.flags.writeable = False
        return view
