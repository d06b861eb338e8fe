"""LogLog and SuperLogLog (Durand & Flajolet 2003).

Members of the LogLog family described in §II-B of the paper. Both use
``t`` 5-bit registers (``t = m/5``); item ``d`` routes to register
``H(d) mod t`` and the register keeps the maximum of ``G(d) + 1`` seen.

- **LogLog** estimates ``n̂ = α∞ · t · 2^{mean(M)}`` with the
  asymptotic correction constant α∞ ≈ 0.39701.
- **SuperLogLog** applies *truncation*: only the smallest ``σ·t``
  registers (σ = 0.7) enter the mean, which removes the heavy upper
  tail of the register distribution and roughly halves the standard
  error. The matching correction constant for σ = 0.7 was obtained by
  Monte-Carlo calibration (``tools/calibrate_constants.py``), the same
  procedure Durand & Flajolet describe.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.estimators.base import CardinalityEstimator
from repro.estimators.state import REGISTERS, Array, Field, SketchState
from repro.hashing import GeometricHash, UniformHash
from repro.kernels import (
    HashPlane,
    geometric_request,
    positions_request,
)

REGISTER_BITS = 5
REGISTER_MAX = (1 << REGISTER_BITS) - 1

#: Asymptotic LogLog correction constant (Durand & Flajolet, Theorem 1).
ALPHA_LOGLOG = 0.39701

#: SuperLogLog truncation fraction σ (keep the smallest 70% registers).
TRUNCATION = 0.7

#: Correction constant for the σ = 0.7 truncated mean, calibrated by
#: tools/calibrate_constants.py with 500 trials (see module docstring).
ALPHA_SUPERLOGLOG = 0.77469

#: LogLog and SuperLogLog share one layout under different magics.
_STATE = SketchState(
    b"LLG1",
    header=(Field("t", init="memory_bits", scale=REGISTER_BITS), Field("seed")),
    arrays=(Array("_registers", np.uint8, length="t", family=REGISTERS),),
)


class LogLog(CardinalityEstimator):
    """LogLog estimator (see module docstring)."""

    name = "LogLog"
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
    # Recording (shared by LogLog and SuperLogLog)
    # ------------------------------------------------------------------
    def _record_u64(self, value: int) -> None:
        self.hash_ops += 2
        self.bits_accessed += REGISTER_BITS
        register = self._route_hash.hash_u64(value) % self.t
        rank = min(self._geometric_hash.value_u64(value) + 1, REGISTER_MAX)
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
            plane.geometric(self._geometric_hash.seed).astype(
                np.uint16, copy=False
            )
            + 1,
            REGISTER_MAX,
        ).astype(np.uint8, copy=False)
        np.maximum.at(self._registers, registers, ranks)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def _small_range(self, raw: float) -> float | None:
        """Linear counting over empty registers while n ≲ t.

        Like FM, the raw LogLog estimate is biased for small n (it is
        ``α∞·t`` on an empty sketch); treating registers as bits of a
        t-bit bitmap is exact in that regime.
        """
        if raw <= 2.5 * self.t:
            empty = int(np.count_nonzero(self._registers == 0))
            if empty:
                return self.t * math.log(self.t / empty)
        return None

    def query(self) -> float:
        self.bits_accessed += self.t * REGISTER_BITS
        raw = ALPHA_LOGLOG * self.t * 2.0 ** float(self._registers.mean())
        corrected = self._small_range(raw)
        return raw if corrected is None else corrected

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


class SuperLogLog(LogLog):
    """SuperLogLog: LogLog with truncation of the largest registers."""

    name = "SuperLogLog"

    state = replace(_STATE, magic=b"SLL1")

    def query(self) -> float:
        self.bits_accessed += self.t * REGISTER_BITS
        keep = max(1, int(math.floor(TRUNCATION * self.t)))
        smallest = np.sort(self._registers)[:keep]
        raw = ALPHA_SUPERLOGLOG * self.t * 2.0 ** float(smallest.mean())
        corrected = self._small_range(raw)
        return raw if corrected is None else corrected
