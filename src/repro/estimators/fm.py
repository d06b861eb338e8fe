"""FM sketch / Probabilistic Counting with Stochastic Averaging (PCSA).

Flajolet & Martin (1985). ``t`` registers of 32 bits each (``t = m/32``
for an ``m``-bit budget). An item is routed to register ``H(d) mod t``
and sets bit ``G(d)`` (geometric hash, capped at 31) in it. The
estimate, eq. (3) of the paper, uses the mean over registers of
``z_i`` — the number of consecutive one bits starting at bit 0:

    n̂ = t · 2^{z̄} / φ,  φ ≈ 0.77351

where φ is Flajolet–Martin's bias correction constant.
"""

from __future__ import annotations

import math

import numpy as np

from repro.estimators.base import CardinalityEstimator
from repro.estimators.state import BITMAP, Array, Field, SketchState
from repro.hashing import (
    GeometricHash,
    UniformHash,
    trailing_zeros,
    trailing_zeros_array,
)
from repro.kernels import (
    HashPlane,
    geometric_request,
    positions_request,
)

#: Flajolet–Martin correction factor (their φ; asymptotic value).
PHI = 0.77351

REGISTER_BITS = 32


class FMSketch(CardinalityEstimator):
    """FM / PCSA estimator (see module docstring).

    Parameters
    ----------
    memory_bits:
        Total budget ``m``; the sketch uses ``t = m // 32`` registers
        (at least one).
    seed:
        Seed for the routing and geometric hashes.
    """

    name = "FM"

    # Each register is a small bitmap of geometric levels, so the array
    # codes like a bit plane on the wire.
    state = SketchState(
        b"FMS1",
        header=(
            Field("t", init="memory_bits", scale=REGISTER_BITS),
            Field("seed"),
        ),
        arrays=(Array("_registers", np.uint32, length="t", family=BITMAP),),
    )

    def __init__(self, memory_bits: int, seed: int = 0) -> None:
        super().__init__()
        if memory_bits < REGISTER_BITS:
            raise ValueError(
                f"memory_bits must be >= {REGISTER_BITS}, got {memory_bits}"
            )
        self.t = int(memory_bits) // REGISTER_BITS
        self.seed = int(seed)
        self._registers = np.zeros(self.t, dtype=np.uint32)
        self._route_hash = UniformHash(seed)
        self._geometric_hash = GeometricHash(seed + 0x47454F)  # "GEO" offset

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record_u64(self, value: int) -> None:
        self.hash_ops += 2
        self.bits_accessed += 1
        register = self._route_hash.hash_u64(value) % self.t
        bit = min(self._geometric_hash.value_u64(value), REGISTER_BITS - 1)
        self._registers[register] |= np.uint32(1 << bit)

    def plane_requests(self) -> tuple:
        """Register-routing hash and geometric bit-index hash."""
        return (
            positions_request(self._route_hash.seed, self.t),
            geometric_request(self._geometric_hash.seed),
        )

    def _record_plane(self, plane: HashPlane) -> None:
        self.hash_ops += 2 * plane.size
        self.bits_accessed += plane.size
        registers = plane.positions(self._route_hash.seed, self.t)
        bits = np.minimum(
            plane.geometric(self._geometric_hash.seed), REGISTER_BITS - 1
        ).astype(np.uint32, copy=False)
        np.bitwise_or.at(self._registers, registers, np.uint32(1) << bits)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def _mean_z(self) -> float:
        """Mean over registers of the first-zero-bit index z_i."""
        # z_i = number of consecutive ones from bit 0 = trailing zeros of
        # the complement (capped at 32 when the register is all ones).
        self.bits_accessed += self.t * REGISTER_BITS
        complements = (~self._registers).astype(np.uint64)
        z = np.minimum(trailing_zeros_array(complements), REGISTER_BITS)
        return float(z.mean())

    def query(self) -> float:
        raw = self.t * (2.0 ** self._mean_z()) / PHI
        # Small-range correction: the raw PCSA estimate is biased for
        # n ≲ t (it returns t/φ even on an empty sketch). Treat each
        # register as one bit of a t-bit bitmap and linear-count while
        # that regime lasts — the paper's §V-F "FM reduces the 32-bit
        # register to a bit" observation, applied automatically.
        if raw <= 2.5 * self.t:
            empty = int(np.count_nonzero(self._registers == 0))
            if empty:
                return self.t * math.log(self.t / empty)
        return raw

    def memory_bits(self) -> int:
        return self.t * REGISTER_BITS

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    def merge(self, other: CardinalityEstimator) -> None:
        self._check_mergeable(other)
        assert isinstance(other, FMSketch)
        np.bitwise_or(self._registers, other._registers, out=self._registers)

    # Convenience used by tests/examples.
    @property
    def registers(self) -> np.ndarray:
        view = self._registers.view()
        view.flags.writeable = False
        return view
