"""Multi-Resolution Bitmap (MRB), Estan, Varghese & Fisk (2003/2006).

MRB keeps ``k`` component bitmaps ``B_0 .. B_{k-1}`` of ``b = m/k`` bits
each. Component ``i`` samples items with probability ``p_i = 2^-i``
(``p_0 = 1``), and an item is physically recorded only in the *finest*
component that samples it: level ``min(G(d), k-1)`` where ``G`` is the
geometric hash. So ``P(level = i) = 2^-(i+1)`` for ``i < k-1`` and
``2^-(k-1)`` for the last component.

Query (eq. (2) of the paper): choose the *base* component — the finest
sampling level whose component is not saturated — then

    n̂ = 2^base · Σ_{j=base}^{k-1} -b · ln(1 - U_j / b)

because the distinct items recorded in components ``base..k-1`` are
exactly the items with ``G(d) >= base``, a ``2^-base`` sample of the
stream. Components below the base are saturated and their recorded
information is discarded — the inefficiency that motivates SMB.

Per §V-C of the paper, a per-component ones counter is maintained so a
query touches ``k`` counters, not ``m`` bits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bitvector import BitVector
from repro.estimators.base import CardinalityEstimator
from repro.estimators.state import BITMAP, Array, Field, SketchState
from repro.hashing import GeometricHash, UniformHash
from repro.kernels import HashPlane, geometric_request, positions_request

#: Default saturation fraction: a component with more than this fraction
#: of ones is considered too dense to estimate from (Estan et al. use a
#: "setline" in the same range).
DEFAULT_SATURATION = 0.9


class MultiResolutionBitmap(CardinalityEstimator):
    """Multi-resolution bitmap estimator (see module docstring).

    Parameters
    ----------
    component_bits:
        Bits per component bitmap (the paper's ``m/k``).
    num_components:
        Number of components ``k``; at least 1.
    seed:
        Seed for the level and position hashes.
    saturation:
        Fraction of ones above which a component is skipped as base.
    """

    name = "MRB"

    state = SketchState(
        b"MRB1",
        header=(
            Field("b", init="component_bits"),
            Field("k", init="num_components"),
            Field("seed"),
            # Only the query reads the setline, so merges may differ.
            Field("saturation", "d", merge=False),
        ),
        arrays=(
            Array("_components", BitVector, length="b", count="k", family=BITMAP),
        ),
    )

    def __init__(
        self,
        component_bits: int,
        num_components: int,
        seed: int = 0,
        saturation: float = DEFAULT_SATURATION,
    ) -> None:
        super().__init__()
        if component_bits < 2:
            raise ValueError(f"component_bits must be >= 2, got {component_bits}")
        if num_components < 1:
            raise ValueError(f"num_components must be >= 1, got {num_components}")
        if not 0 < saturation <= 1:
            raise ValueError(f"saturation must be in (0, 1], got {saturation}")
        self.b = int(component_bits)
        self.k = int(num_components)
        self.seed = int(seed)
        self.saturation = float(saturation)
        self._components = [BitVector(self.b) for __ in range(self.k)]
        self._level_hash = GeometricHash(seed)
        self._position_hash = UniformHash(seed + 0x504F53)  # "POS" offset

    @classmethod
    def for_workload(
        cls, memory_bits: int, expected_cardinality: int, seed: int = 0
    ) -> "MultiResolutionBitmap":
        """Construct with the paper's Table III parameters.

        Looks up ``(k, m/k)`` recommended for a total memory of
        ``memory_bits`` and streams up to ``expected_cardinality``.
        """
        from repro.core.tuning import mrb_parameters

        params = mrb_parameters(memory_bits, expected_cardinality)
        return cls(params.component_bits, params.num_components, seed=seed)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record_u64(self, value: int) -> None:
        self.hash_ops += 2
        self.bits_accessed += 1
        level = self._level_hash.value_u64(value)
        if level >= self.k:
            level = self.k - 1
        position = self._position_hash.hash_u64(value) % self.b
        self._components[level].set(position)

    def plane_requests(self) -> tuple:
        """Geometric level hash and component-position hash."""
        return (
            geometric_request(self._level_hash.seed),
            positions_request(self._position_hash.seed, self.b),
        )

    def _record_plane(self, plane: HashPlane) -> None:
        self.hash_ops += 2 * plane.size
        self.bits_accessed += plane.size
        levels = np.minimum(plane.geometric(self._level_hash.seed), self.k - 1)
        positions = plane.positions(self._position_hash.seed, self.b)
        # Route positions to components with one compare-and-gather pass
        # per *occupied* level (k is small; a sort would cost more).
        occupied = np.flatnonzero(np.bincount(levels, minlength=self.k))
        # analysis: allow(purity) -- one iteration per occupied level
        # (at most k), each applying a vectorized gather + set_many
        for level in occupied.tolist():
            self._components[level].set_many(positions[levels == level])

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    @property
    def ones_per_component(self) -> list[int]:
        """The maintained per-component ones counters (the paper's U_i)."""
        return [component.ones for component in self._components]

    def _base_level(self) -> int:
        """Finest sampling level whose component is below saturation."""
        limit = self.saturation * self.b
        for level, component in enumerate(self._components):
            self.bits_accessed += 64  # counter read
            if component.ones <= limit:
                return level
        return self.k - 1

    def query(self) -> float:
        base = self._base_level()
        total = 0.0
        for component in self._components[base:]:
            self.bits_accessed += 64
            ones = component.ones
            if ones >= self.b:
                ones = self.b - 1  # saturated component: clamp to max useful
            total += -self.b * math.log(1.0 - ones / self.b)
        return math.ldexp(total, base)  # total * 2^base

    def max_estimate(self) -> float:
        """Largest estimate: all of B_{k-1} full at base k-1."""
        return math.ldexp(self.b * math.log(self.b), self.k - 1)

    def memory_bits(self) -> int:
        return self.b * self.k

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    def merge(self, other: CardinalityEstimator) -> None:
        self._check_mergeable(other)
        assert isinstance(other, MultiResolutionBitmap)
        for mine, theirs in zip(self._components, other._components):
            mine.or_update(theirs)
