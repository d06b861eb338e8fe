"""Deterministic hash partitioning of item streams into disjoint shards.

The engine scales out by splitting the *item space* (not the arrival
sequence) across ``K`` shards with a seeded uniform hash: every distinct
item maps to exactly one shard, for the whole lifetime of the pool.
Consequences the rest of the engine relies on:

- the distinct-item sets seen by different shards are **disjoint**, so
  per-shard cardinalities are *exactly additive* — summing shard
  estimates is unbiased even for non-mergeable estimators such as SMB;
- duplicates of an item always land on the same shard, so per-shard
  duplicate-insensitivity (Theorem 2 for SMB) is preserved;
- partitioning is a pure function of ``(seed, item)``, so re-partitioning
  a replayed stream reproduces the same sub-streams bit for bit.

The partition hash is derived from a dedicated seed offset so it is
independent of every hash the estimators themselves use (position,
routing, geometric); correlating the two would skew per-shard loads.

Both a scalar path (:meth:`Partitioner.shard_of`) and a vectorized path
(:meth:`Partitioner.shard_ids`, :meth:`Partitioner.split`) are provided,
computing the same function — mirroring the library-wide scalar/batch
equivalence contract. Both splits share one stable counting sort of the
routing hash, computed from the values: no shard reads it, so it is
never cached on a plane.
"""

from __future__ import annotations

import numpy as np

from repro.hashing import UniformHash, canonical_u64_array
from repro.kernels import HashPlane

#: Seed offset of the partition hash, distinct from every offset the
#: estimators use (SMB position 0x504F53, LogLog/HLL geometric 0x47454F),
#: so routing is independent of estimation.
ROUTE_SEED_OFFSET = 0x53484152  # "SHAR"


class Partitioner:
    """Deterministic hash partitioner over ``num_shards`` disjoint shards.

    Parameters
    ----------
    num_shards:
        Number of shards ``K`` (>= 1).
    seed:
        Pool seed; the partition hash uses ``seed + ROUTE_SEED_OFFSET``.

    With ``num_shards == 1`` partitioning degenerates to the identity and
    no hash is computed at all (in either path), so a single-shard pool
    adds no per-item overhead over the bare estimator.
    """

    __slots__ = ("num_shards", "seed", "_hash", "_num_shards_u64", "_id_dtype")

    def __init__(self, num_shards: int, seed: int = 0) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        self.seed = int(seed)
        self._hash = UniformHash(self.seed + ROUTE_SEED_OFFSET)
        self._num_shards_u64 = np.uint64(self.num_shards)
        self._id_dtype = np.min_scalar_type(self.num_shards - 1)

    def shard_of(self, value: int) -> int:
        """Shard index of one canonical uint64 value (scalar path)."""
        if self.num_shards == 1:
            return 0
        return self._hash.hash_u64(value) % self.num_shards

    def shard_ids(self, values: np.ndarray) -> np.ndarray:
        """Shard index of every value in a uint64 array (vectorized)."""
        if self.num_shards == 1:
            return np.zeros(values.size, dtype=np.uint64)
        return self._hash.hash_array(values) % self._num_shards_u64

    def _groups(self, values: np.ndarray) -> list[np.ndarray]:
        """Each shard's indices into ``values``, in arrival order.

        The shard ids are narrowed to the smallest unsigned dtype, which
        one stable ``argsort`` sorts by radix below 16 bits; the group
        boundaries are the running sum of the ids' ``bincount``.
        """
        ids = self.shard_ids(values).astype(self._id_dtype)
        order = np.argsort(ids, kind="stable")
        bounds = np.zeros(self.num_shards + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids, minlength=self.num_shards), out=bounds[1:])
        edges = bounds.tolist()
        return [
            order[edges[k]:edges[k + 1]] for k in range(self.num_shards)
        ]

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """Split a uint64 array into ``K`` disjoint per-shard sub-arrays.

        The within-shard arrival order of the input is preserved (a
        stable grouping), which is what makes sharded recording
        bit-for-bit equivalent to feeding each shard its sub-stream
        sequentially — required for order-sensitive estimators (SMB).
        """
        values = canonical_u64_array(values)
        if self.num_shards == 1:
            return [values]
        return [values[group] for group in self._groups(values)]

    def split_plane(self, plane: HashPlane) -> list[HashPlane]:
        """Split a hash plane into ``K`` disjoint per-shard sub-planes.

        Same grouping (and the same stability guarantee) as
        :meth:`split`. Every hash array already materialized on the
        plane is *gathered* into the sub-planes by
        :meth:`~repro.kernels.HashPlane.take`, so a shard never re-hashes
        what was prefetched for it.
        """
        if self.num_shards == 1:
            return [plane]
        return [plane.take(group) for group in self._groups(plane.values)]

    def __repr__(self) -> str:
        return f"Partitioner(num_shards={self.num_shards}, seed={self.seed})"
