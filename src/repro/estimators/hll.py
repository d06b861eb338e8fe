"""HyperLogLog and HyperLogLog++ estimators.

**HyperLogLog** (Flajolet et al. 2007) as described in §II-B of the
paper: ``t`` 5-bit registers (``t = m/5``); item ``d`` routes to
register ``H(d) mod t`` which keeps ``Y = max(Y, G(d) + 1)`` with
``G(d)`` capped at 30. The estimate is the harmonic mean, eq. (4):

    n̂ = α_t · t² / Σ_i 2^{-Y_i}

with the standard small-range correction: when the raw estimate is
below ``2.5·t`` and empty registers remain, fall back to linear
counting ``t · ln(t / V)``.

**HyperLogLog++** (Heule, Nunkesser & Hall 2013) improves HLL with a
64-bit hash (removing the large-range correction) and an empirical bias
correction in the awkward range between linear counting and the raw
estimate. Google's bias tables target their power-of-two precisions, so
we regenerate the table with the same Monte-Carlo methodology
(``tools/calibrate_constants.py``) as a *normalized* curve — relative
bias as a function of ``raw / t`` — which applies to the arbitrary
register counts the paper's memory budgets produce (see DESIGN.md §5).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.estimators._hll_bias import BIAS_RATIO, BIAS_REL
from repro.estimators.base import CardinalityEstimator
from repro.estimators.state import REGISTERS, Array, Field, SketchState
from repro.hashing import GeometricHash, UniformHash
from repro.kernels import (
    HashPlane,
    geometric_request,
    positions_request,
)

REGISTER_BITS = 5
#: Maximum geometric hash value recorded (register stores G+1 <= 31).
MAX_RANK = 31

#: HLL and HLL++ share one layout under different magics.
_STATE = SketchState(
    b"HLL1",
    header=(Field("t", init="memory_bits", scale=REGISTER_BITS), Field("seed")),
    arrays=(Array("_registers", np.uint8, length="t", family=REGISTERS),),
)


def alpha(t: int) -> float:
    """HLL bias-correction constant α_t (Flajolet et al., Fig. 3)."""
    if t <= 16:
        return 0.673
    if t <= 32:
        return 0.697
    if t <= 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / t)


class HyperLogLog(CardinalityEstimator):
    """HyperLogLog estimator (see module docstring).

    Parameters
    ----------
    memory_bits:
        Total budget ``m``; uses ``t = m // 5`` registers.
    seed:
        Seed for the routing and geometric hashes.
    """

    name = "HLL"
    state = _STATE

    def __init__(self, memory_bits: int, seed: int = 0) -> None:
        super().__init__()
        if memory_bits < REGISTER_BITS:
            raise ValueError(
                f"memory_bits must be >= {REGISTER_BITS}, got {memory_bits}"
            )
        self.t = int(memory_bits) // REGISTER_BITS
        self.seed = int(seed)
        self._registers = np.zeros(self.t, dtype=np.uint8)
        self._route_hash = UniformHash(seed)
        self._geometric_hash = GeometricHash(seed + 0x47454F)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record_u64(self, value: int) -> None:
        self.hash_ops += 2
        self.bits_accessed += REGISTER_BITS
        register = self._route_hash.hash_u64(value) % self.t
        rank = min(self._geometric_hash.value_u64(value), MAX_RANK - 1) + 1
        if rank > self._registers[register]:
            self._registers[register] = rank

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
        ranks = np.minimum(
            plane.geometric(self._geometric_hash.seed), MAX_RANK - 1
        ) + np.uint8(1)
        np.maximum.at(self._registers, registers, ranks)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def _raw_estimate(self) -> float:
        self.bits_accessed += self.t * REGISTER_BITS
        harmonic = float(np.exp2(-self._registers.astype(np.float64)).sum())
        return alpha(self.t) * self.t * self.t / harmonic

    def _zero_registers(self) -> int:
        return int(np.count_nonzero(self._registers == 0))

    def query(self) -> float:
        raw = self._raw_estimate()
        if raw <= 2.5 * self.t:
            zeros = self._zero_registers()
            if zeros:
                return self.t * math.log(self.t / zeros)
        return raw

    def memory_bits(self) -> int:
        return self.t * REGISTER_BITS

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    def merge(self, other: CardinalityEstimator) -> None:
        self._check_mergeable(other)
        np.maximum(self._registers, other._registers, out=self._registers)

    @property
    def registers(self) -> np.ndarray:
        view = self._registers.view()
        view.flags.writeable = False
        return view


def _bias(raw: float, t: int) -> float:
    """Empirical HLL++ bias at raw estimate ``raw`` for ``t`` registers.

    Interpolates the normalized calibration curve (relative bias as a
    function of ``raw / t``); zero outside the calibrated range.
    """
    ratio = raw / t
    if not BIAS_RATIO or ratio <= BIAS_RATIO[0] or ratio >= BIAS_RATIO[-1]:
        return 0.0
    rel = float(np.interp(ratio, BIAS_RATIO, BIAS_REL))
    return rel * raw


class HyperLogLogPlusPlus(HyperLogLog):
    """HyperLogLog++ (see module docstring).

    The linear-counting/raw switch threshold follows Heule et al.: the
    empirical crossover sits around ``0.7·t`` for large precisions.
    """

    name = "HLL++"

    state = replace(_STATE, magic=b"HPP1")

    #: Linear counting is used while it estimates below this multiple of t.
    LC_THRESHOLD = 0.7

    #: Bias correction applies while the raw estimate is below 5t.
    BIAS_RANGE = 5.0

    def query(self) -> float:
        raw = self._raw_estimate()
        if raw <= self.BIAS_RANGE * self.t:
            corrected = raw - _bias(raw, self.t)
        else:
            corrected = raw
        zeros = self._zero_registers()
        if zeros:
            linear = self.t * math.log(self.t / zeros)
            if linear <= self.LC_THRESHOLD * self.t:
                return linear
        return corrected
