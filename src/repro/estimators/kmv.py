"""K-Minimum-Values (KMV / MinCount / AKMV) estimator.

The first category of estimators in §II-B of the paper: hash every item
uniformly to (0, 1), keep the ``k`` smallest *distinct* hash values, and
estimate from the k-th smallest value ``U_(k)``:

    n̂ = (k - 1) / U_(k)

(Bar-Yossef et al. 2002; Beyer et al.'s unbiased AKMV estimator). When
fewer than ``k`` distinct hashes have been seen the count is exact.

Beyond plain estimation the KMV synopsis supports set operations, which
the other estimators cannot: :meth:`union` and :meth:`jaccard` implement
the AKMV combination rules.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.estimators.base import CardinalityEstimator
from repro.estimators.state import Array, Field, SketchState
from repro.hashing import UniformHash
from repro.kernels import HashPlane, uniform_request

#: Hash values are mapped to (0, 1] by dividing by 2^64.
_SCALE = float(1 << 64)


class KMinValues(CardinalityEstimator):
    """KMV estimator (see module docstring).

    Parameters
    ----------
    k:
        Number of minimum hash values retained; at least 2.
    seed:
        Seed of the uniform hash.
    """

    name = "KMV"

    state = SketchState(
        b"KMV1",
        header=(Field("k"), Field("seed"), Field("_values", kind="length")),
        arrays=(Array("_values", np.uint64, length="_values"),),
    )

    def __init__(self, k: int, seed: int = 0) -> None:
        super().__init__()
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        self.k = int(k)
        self.seed = int(seed)
        self._hash = UniformHash(seed)
        # The k smallest distinct hashes seen, ascending.
        self._values: list[int] = []

    @classmethod
    def for_memory(cls, memory_bits: int, seed: int = 0) -> "KMinValues":
        """Size ``k`` to fit a ``memory_bits`` budget (64 bits per value)."""
        k = memory_bits // 64
        if k < 2:
            raise ValueError(
                f"memory_bits={memory_bits} is too small for KMV (needs >= 128)"
            )
        return cls(k, seed=seed)

    @classmethod
    def for_workload(
        cls, memory_bits: int, expected_cardinality: int, seed: int = 0
    ) -> "KMinValues":
        """The :meth:`for_memory` sizing; KMV's k does not depend on n."""
        return cls.for_memory(memory_bits, seed=seed)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record_u64(self, value: int) -> None:
        self.hash_ops += 1
        self.bits_accessed += 64
        hashed = self._hash.hash_u64(value)
        values = self._values
        if len(values) >= self.k and hashed >= values[-1]:
            return
        index = bisect.bisect_left(values, hashed)
        if index < len(values) and values[index] == hashed:
            return
        values.insert(index, hashed)
        if len(values) > self.k:
            values.pop()

    def plane_requests(self) -> tuple:
        """The single uniform value hash."""
        return (uniform_request(self._hash.seed),)

    def _record_plane(self, plane: HashPlane) -> None:
        self.hash_ops += plane.size
        self.bits_accessed += 64 * plane.size
        hashes = plane.uniform(self._hash.seed)
        if len(self._values) >= self.k:
            # A full synopsis only admits hashes below its k-th minimum.
            hashes = hashes[hashes < np.uint64(self._values[-1])]
            if hashes.size == 0:
                return
        merged = np.union1d(np.array(self._values, dtype=np.uint64), hashes)
        # analysis: allow(purity) -- bounded by k, not by the plane size
        self._values = merged[: self.k].tolist()

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self) -> float:
        self.bits_accessed += 64
        if len(self._values) < self.k:
            return float(len(self._values))
        kth_smallest = (self._values[-1] + 1) / _SCALE  # +1 maps to (0, 1]
        return (self.k - 1) / kth_smallest

    def memory_bits(self) -> int:
        return self.k * 64

    def _check_state(self) -> None:
        # The decoder sets the values as a uint64 array.
        values = np.asarray(self._values, dtype=np.uint64)
        if values.size > self.k:
            raise ValueError(
                f"corrupt KMinValues payload: {values.size} values exceed k={self.k}"
            )
        if values.size > 1 and not bool(np.all(values[1:] > values[:-1])):
            raise ValueError(
                "corrupt KMinValues payload: values not strictly increasing"
            )
        self._values = values.tolist()

    # ------------------------------------------------------------------
    # Set operations (AKMV)
    # ------------------------------------------------------------------
    def values(self) -> list[int]:
        """The retained hash values, ascending."""
        return list(self._values)

    def merge(self, other: CardinalityEstimator) -> None:
        self._check_mergeable(other)
        assert isinstance(other, KMinValues)
        self._values = sorted({*self._values, *other._values})[: self.k]

    def union(self, other: "KMinValues") -> "KMinValues":
        """The KMV synopsis of the union of both streams."""
        out = KMinValues(self.k, seed=self.seed)
        out.merge(self)
        out.merge(other)
        return out

    def jaccard(self, other: "KMinValues") -> float:
        """AKMV Jaccard similarity estimate between the two streams."""
        self._check_mergeable(other)
        mine, theirs = set(self._values), set(other._values)
        union_k = sorted(mine | theirs)[: self.k]
        if not union_k:
            return 0.0
        overlap = sum(1 for v in union_k if v in mine and v in theirs)
        return overlap / len(union_k)
