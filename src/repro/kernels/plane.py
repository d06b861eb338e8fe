"""The hash plane: per-chunk hash arrays computed once, shared by all.

Every estimator in this library derives its per-item randomness from
the same two primitives over the canonical uint64 value: a seeded
splitmix64 *uniform* hash and its trailing-zero *geometric* level
(Definition 1 of the paper). A chunk of the stream therefore has a
small set of hash arrays that every consumer of that chunk draws from —
the **hash plane**:

    plane = HashPlane.of(chunk)
    hll.record_plane(plane)        # positions(seed, t), geometric(seed'')
    pool.record_plane(plane)       # shared requests + gathered sub-planes
    smb.record_plane(plane)        # the values only; hashes its own chunks

:class:`HashPlane` memoizes each array by ``(kind, seed[, modulus])``
the first time a consumer asks for it. Consumers with the same seed
(mirrored estimators, the K same-seed shards of ``ShardPool.of``, the
d rows of a SpreadSketch, a benchmark recording one stream into several
baselines that share a route or geometric seed) hit the cache and pay
nothing. Register scatters read from the plane, so a chunk is hashed
**once** no matter how many structures consume it. SMB is the
exception by design: its Step 1 needs a uniform hash of every arrival
and its Step 2 a position hash of the survivors only, both cheapest
per chunk of its own values.

Memory: each materialized array is 8 bytes/item for uniform and
position arrays and 1 byte/item for geometric levels; a plane over an
8192-item chunk with three consumers typically holds 3-5 arrays
(~200 KB), freed with the plane when the chunk has been applied.

Partitioning: :meth:`take` builds a sub-plane for a subset of the chunk
(the engine's per-shard sub-streams), gathering every *already
materialized* array instead of re-hashing — the gathered copies are
owned by the sub-plane, so a sub-plane stays valid after the parent
is freed.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.hashing import (
    UniformHash,
    canonical_u64_array,
    trailing_zeros_array,
)

#: A plane request names one hash array: ("uniform", seed),
#: ("geometric", seed) or ("positions", seed, modulus). Estimators
#: advertise theirs via ``CardinalityEstimator.plane_requests`` so a
#: pool can prefetch full-width arrays before splitting a chunk.
PlaneRequest = Tuple


def uniform_request(seed: int) -> PlaneRequest:
    """Request the seeded uniform (splitmix64) hash array."""
    return ("uniform", int(seed))


def geometric_request(seed: int) -> PlaneRequest:
    """Request the seeded geometric-level array."""
    return ("geometric", int(seed))


def positions_request(seed: int, modulus: int) -> PlaneRequest:
    """Request the seeded uniform hash reduced modulo ``modulus``."""
    return ("positions", int(seed), int(modulus))


class HashPlane:
    """Memoized hash arrays over one chunk of canonical uint64 values.

    Parameters
    ----------
    values:
        Canonical ``uint64`` array (see ``repro.hashing.canonical_u64``).
        The constructor trusts the dtype; use :meth:`of` to canonicalize
        arbitrary items.
    """

    __slots__ = ("values", "_uniform", "_geometric", "_positions")

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self._uniform: dict[int, np.ndarray] = {}
        self._geometric: dict[int, np.ndarray] = {}
        self._positions: dict[tuple[int, int], np.ndarray] = {}

    @classmethod
    def of(cls, items: Iterable[object] | np.ndarray) -> "HashPlane":
        """Canonicalize ``items`` and wrap them in a fresh plane."""
        return cls(canonical_u64_array(items))

    @property
    def size(self) -> int:
        """Number of values in the chunk."""
        return int(self.values.size)

    # ------------------------------------------------------------------
    # Hash arrays (memoized)
    # ------------------------------------------------------------------
    def uniform(self, seed: int) -> np.ndarray:
        """``UniformHash(seed)`` over the chunk, computed at most once."""
        seed = int(seed)
        array = self._uniform.get(seed)
        if array is None:
            array = UniformHash(seed).hash_array(self.values)
            self._uniform[seed] = array
        return array

    def geometric(self, seed: int) -> np.ndarray:
        """``GeometricHash(seed)`` levels (uint8), computed at most once.

        Derived from :meth:`uniform` of the same seed, so a consumer
        pair needing both (e.g. SMB's sampling filter plus a mirror's
        register ranks) shares the expensive mixing pass.
        """
        seed = int(seed)
        array = self._geometric.get(seed)
        if array is None:
            array = trailing_zeros_array(self.uniform(seed))
            self._geometric[seed] = array
        return array

    def positions(self, seed: int, modulus: int) -> np.ndarray:
        """``uniform(seed) % modulus``, memoized per ``(seed, modulus)``."""
        key = (int(seed), int(modulus))
        array = self._positions.get(key)
        if array is None:
            array = self.uniform(key[0]) % np.uint64(key[1])
            self._positions[key] = array
        return array

    def prefetch(self, requests: Iterable[PlaneRequest]) -> None:
        """Materialize every requested array (full vector width).

        Pools call this before :meth:`take` so the per-shard sub-planes
        are pure gathers — the shards themselves never hash.
        """
        # analysis: allow(purity.loop) -- iterates the request list (a
        # handful of descriptors), never the chunk values
        for request in requests:
            kind = request[0]
            if kind == "uniform":
                self.uniform(request[1])
            elif kind == "geometric":
                self.geometric(request[1])
            elif kind == "positions":
                self.positions(request[1], request[2])
            else:
                raise ValueError(f"unknown plane request {request!r}")

    # ------------------------------------------------------------------
    # Derived planes
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "HashPlane":
        """Sub-plane of ``values[indices]`` with gathered hash arrays.

        Every array already materialized on this plane is gathered into
        the child (no re-hashing); arrays requested later on the child
        are computed over the child's values only. The child owns its
        copies, so it can cross a thread boundary.
        """
        child = HashPlane(self.values[indices])
        # analysis: allow(purity.loop) -- per memoized array, gathers vectorized
        for seed, array in self._uniform.items():
            child._uniform[seed] = array[indices]
        # analysis: allow(purity.loop) -- per memoized array, gathers vectorized
        for seed, array in self._geometric.items():
            child._geometric[seed] = array[indices]
        # analysis: allow(purity.loop) -- per memoized array, gathers vectorized
        for key, array in self._positions.items():
            child._positions[key] = array[indices]
        return child

    def materialized(self) -> Sequence[PlaneRequest]:
        """The requests currently cached (diagnostics and tests)."""
        return (
            tuple(("uniform", seed) for seed in self._uniform)
            + tuple(("geometric", seed) for seed in self._geometric)
            + tuple(("positions", *key) for key in self._positions)
        )

    def __repr__(self) -> str:
        return (
            f"HashPlane(size={self.size}, "
            f"materialized={len(self.materialized())})"
        )
