"""Geometric hash function (Definition 1 of the paper).

``G(x)`` is a geometric hash function of base 2 when ``G(x) = i`` with
probability ``2^-(i+1)``. Following the paper, ``G(x) = rho(H(x))`` where
``H`` is a uniform hash and ``rho(y)`` is the number of leading zeros of
``y`` starting from the least significant digit — i.e. the number of
trailing zero bits of ``y``.

A uniform 64-bit value has ``i`` trailing zeros with probability
``2^-(i+1)`` for ``i < 64``; the all-zero value (probability ``2^-64``)
is mapped to 64.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.uniform import UniformHash, canonical_u64

_U64_ONE = np.uint64(1)


def trailing_zeros(x: int) -> int:
    """Number of trailing zero bits of a 64-bit value (scalar).

    ``trailing_zeros(0)`` is defined as 64.
    """
    if x == 0:
        return 64
    return ((x & -x).bit_length()) - 1


def trailing_zeros_array(x: np.ndarray) -> np.ndarray:
    """Vectorized trailing-zero count over a ``uint64`` array.

    Uses the branch-free identity ``tz(x) = popcount((x & -x) - 1)``,
    which maps 0 to 64 because ``(0 & -0) - 1`` wraps to all-ones.
    Returns a ``uint8`` array.
    """
    with np.errstate(over="ignore"):
        lsb = x & (~x + _U64_ONE)
        return np.bitwise_count(lsb - _U64_ONE)


class GeometricHash:
    """A seeded geometric hash ``G(d)`` of base 2.

    ``P(G(d) = i) = 2^-(i+1)`` for ``0 <= i < 64``. Scalar path via
    :meth:`value` / :meth:`value_u64`, vectorized path via
    :meth:`value_array`.
    """

    __slots__ = ("_hash",)

    def __init__(self, seed: int = 0) -> None:
        self._hash = UniformHash(seed)

    @property
    def seed(self) -> int:
        return self._hash.seed

    @property
    def uniform(self) -> UniformHash:
        """The uniform hash ``H`` whose trailing zeros this counts."""
        return self._hash

    def value_u64(self, x: int) -> int:
        """Geometric hash of a canonical uint64 value (scalar)."""
        return trailing_zeros(self._hash.hash_u64(x))

    def value(self, item: object) -> int:
        """Geometric hash of an arbitrary item (scalar)."""
        return self.value_u64(canonical_u64(item))

    def value_array(self, x: np.ndarray) -> np.ndarray:
        """Geometric hash of a ``uint64`` array (vectorized)."""
        return trailing_zeros_array(self._hash.hash_array(x))

    def __repr__(self) -> str:
        return f"GeometricHash(seed={self.seed})"
