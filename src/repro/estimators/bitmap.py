"""Plain bitmap (linear counting) estimator, eq. (1) of the paper.

An array of ``m`` bits; item ``d`` sets bit ``H(d) mod m``. The estimate
is ``n̂ = -m ln(1 - U/m)`` where ``U`` is the number of one bits
(Whang et al. 1990). Supports an optional fixed sampling probability,
which is how the Adaptive Bitmap of §II-C uses it: items are sampled
with probability ``p`` (decided by an independent hash, so duplicates
are sampled consistently) and the estimate is scaled by ``1/p``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bitvector import BitVector
from repro.estimators.base import CardinalityEstimator
from repro.estimators.state import BITMAP, Array, Field, SketchState
from repro.hashing import MASK64, UniformHash
from repro.kernels import HashPlane, positions_request, uniform_request


class Bitmap(CardinalityEstimator):
    """Linear-counting bitmap estimator.

    Parameters
    ----------
    memory_bits:
        Size ``m`` of the bit array; must be at least 2.
    seed:
        Seed of the position hash ``H``.
    sampling_probability:
        Optional fixed sampling probability ``p`` in (0, 1]; items are
        consistently sampled by an independent hash so repeats of the
        same item always make the same sampling decision.
    """

    name = "Bitmap"

    state = SketchState(
        b"BMP1",
        header=(
            Field("m", init="memory_bits"),
            Field("seed"),
            Field("p", "d", init="sampling_probability"),
            Field("", kind="reserved"),
        ),
        arrays=(Array("_bits", BitVector, length="m", family=BITMAP),),
    )

    def __init__(
        self,
        memory_bits: int,
        seed: int = 0,
        sampling_probability: float = 1.0,
    ) -> None:
        super().__init__()
        if memory_bits < 2:
            raise ValueError(f"memory_bits must be >= 2, got {memory_bits}")
        if not 0 < sampling_probability <= 1:
            raise ValueError(
                f"sampling_probability must be in (0, 1], got {sampling_probability}"
            )
        self.m = int(memory_bits)
        self.seed = int(seed)
        self.p = float(sampling_probability)
        self._bits = BitVector(self.m)
        self._position_hash = UniformHash(seed)
        self._sample_hash = UniformHash(seed + 0x53414D50)  # "SAMP" offset
        # Sampling threshold over the 64-bit hash range.
        self._sample_threshold = int(self.p * (MASK64 + 1))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record_u64(self, value: int) -> None:
        if self.p < 1.0:
            self.hash_ops += 1
            if self._sample_hash.hash_u64(value) >= self._sample_threshold:
                return
        self.hash_ops += 1
        self.bits_accessed += 1
        self._bits.set(self._position_hash.hash_u64(value) % self.m)

    def plane_requests(self) -> tuple:
        """Position hash, plus the sampling hash when p < 1."""
        requests = (positions_request(self._position_hash.seed, self.m),)
        if self.p < 1.0:
            requests += (uniform_request(self._sample_hash.seed),)
        return requests

    def _record_plane(self, plane: HashPlane) -> None:
        positions = plane.positions(self._position_hash.seed, self.m)
        if self.p < 1.0:
            self.hash_ops += plane.size
            sampled = plane.uniform(self._sample_hash.seed)
            positions = positions[sampled < np.uint64(self._sample_threshold)]
            if positions.size == 0:
                return
        self.hash_ops += positions.size
        self.bits_accessed += positions.size
        self._bits.set_many(positions)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    @property
    def ones(self) -> int:
        """Number of bits set (the paper's U)."""
        return self._bits.ones

    def query(self) -> float:
        self.bits_accessed += 64  # read the maintained ones counter
        ones = self._bits.ones
        if ones >= self.m:
            # Saturated: the estimator's maximum useful estimate.
            return self.max_estimate() / self.p
        return -self.m * math.log(1.0 - ones / self.m) / self.p

    def max_estimate(self) -> float:
        """Largest estimate the bitmap can produce (U = m - 1): m ln m."""
        return self.m * math.log(self.m)

    def memory_bits(self) -> int:
        return self.m

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    def merge(self, other: CardinalityEstimator) -> None:
        self._check_mergeable(other)
        assert isinstance(other, Bitmap)
        self._bits.or_update(other._bits)
