"""A shard pool: one estimator per hash partition, additive queries.

:class:`ShardPool` holds ``K`` estimators and routes every item to
exactly one of them through a :class:`~repro.engine.partition.Partitioner`.
Because the partition assigns each *distinct item* to one shard, the
shards' distinct-item sets are disjoint and

    |stream| = Σ_k |sub-stream_k|

holds **exactly** — so summing the per-shard estimates is an unbiased
estimator of the total cardinality for *any* estimator type, including
SMB, which is not mergeable on overlapping streams (its morphing
schedule is arrival-order dependent; see ``repro.estimators.setops``).
Sharding is how an SMB deployment scales out despite non-mergeability.

For mergeable shard types (Bitmap, MRB, FM, LogLog family, HLL, KMV)
the pool additionally supports:

- :meth:`ShardPool.merge` — shard-wise union of two pools built over the
  same partition function (an item routes to the same shard in both
  pools, so per-shard unions stay disjoint across shards);
- :meth:`ShardPool.merged` — collapsing all shards into one sketch of
  the union stream, when every shard was built with identical
  parameters.

The pool is itself a :class:`~repro.estimators.base.CardinalityEstimator`
and honours the full library contract (scalar ≡ batch bit-for-bit,
duplicate insensitivity, serialization round-trips, instrumentation
counters), so it composes with the harness, the windowing sketches and
the checkpoint layer like any other estimator. Its byte image (version
2) ends with :mod:`repro.framing`'s list of (class name, shard blob)::

    magic "POOL" | u16 version | u64 partition seed | (name, blob) list
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.estimators.base import CardinalityEstimator
from repro.estimators.registry import make_estimator, register, sketch_registry
from repro.engine.partition import Partitioner
from repro.framing import pack_entries, read_entries, unpack_header
from repro.kernels import HashPlane
from repro.kernels.plane import PlaneRequest

_HEADER = struct.Struct("<4sHQ")  # magic, version, partition seed
_MAGIC = b"POOL"
_VERSION = 2


@register("wire")
class ShardPool(CardinalityEstimator):
    """K hash-partitioned estimators with an exactly-additive query.

    Parameters
    ----------
    factory:
        ``factory(shard_index) -> CardinalityEstimator``; called once
        per shard. For :meth:`merged` to be available every shard must
        be built with identical parameters (same class, size and seed).
    num_shards:
        Number of shards ``K`` (>= 1).
    seed:
        Seed of the partition hash (independent of estimator seeds).
    """

    name = "ShardPool"

    def __init__(
        self,
        factory: Callable[[int], CardinalityEstimator],
        num_shards: int,
        seed: int = 0,
    ) -> None:
        self.partitioner = Partitioner(num_shards, seed)
        self.shards: list[CardinalityEstimator] = [
            factory(index) for index in range(num_shards)
        ]
        for index, shard in enumerate(self.shards):
            if not isinstance(shard, CardinalityEstimator):
                raise TypeError(
                    f"factory returned {type(shard).__name__} for shard "
                    f"{index}; expected a CardinalityEstimator"
                )
        super().__init__()  # zeroes the routing counters via the setters

    @classmethod
    def of(
        cls,
        estimator: str,
        memory_bits: int,
        num_shards: int,
        design_cardinality: int = 1_000_000,
        seed: int = 0,
    ) -> "ShardPool":
        """Build a pool by estimator display name with the paper's sizing.

        The total ``memory_bits`` budget and the ``design_cardinality``
        are divided evenly across the ``num_shards`` shards (each shard
        sees ~1/K of the distinct items), and every shard shares the
        same estimator seed so that :meth:`merged` stays valid for
        mergeable types.
        """
        shard_bits = max(64, int(memory_bits) // int(num_shards))
        shard_design = max(1_000, int(design_cardinality) // int(num_shards))
        return cls(
            lambda index: make_estimator(
                estimator, shard_bits, shard_design, seed
            ),
            num_shards,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Instrumentation: pool counters aggregate routing + shard counters.
    # ------------------------------------------------------------------
    @property
    def hash_ops(self) -> int:
        """Routing hash ops plus every shard's own hash ops."""
        return self._route_hash_ops + sum(s.hash_ops for s in self.shards)

    @hash_ops.setter
    def hash_ops(self, value: int) -> None:
        self._route_hash_ops = int(value)

    @property
    def bits_accessed(self) -> int:
        """Aggregate bits-accessed counter across all shards."""
        return self._route_bits_accessed + sum(
            s.bits_accessed for s in self.shards
        )

    @bits_accessed.setter
    def bits_accessed(self, value: int) -> None:
        self._route_bits_accessed = int(value)

    def reset_counters(self) -> None:
        """Zero the routing counters and every shard's counters."""
        super().reset_counters()
        for shard in self.shards:
            shard.reset_counters()

    # ------------------------------------------------------------------
    # Recording: route, then delegate. Both paths bill one routing hash
    # per item (none when K == 1, where no routing hash is computed).
    # ------------------------------------------------------------------
    def _record_u64(self, value: int) -> None:
        if self.num_shards > 1:
            self._route_hash_ops += 1
        self.shards[self.partitioner.shard_of(value)]._record_u64(value)

    def plane_requests(self) -> tuple[PlaneRequest, ...]:
        """Routing hash plus every request shared by all shards.

        Requests unique to a subset of shards are left out: they are
        cheaper to compute at sub-plane width after partitioning than
        at full chunk width before it. ``ShardPool.of`` gives every
        shard the same estimator seed, so there the full request set is
        prefetched and the shards never hash at all.
        """
        requests: list[PlaneRequest] = []
        if self.num_shards > 1:
            requests.append(self.partitioner.plane_request())
        counts: dict[PlaneRequest, int] = {}
        for shard in self.shards:
            for request in dict.fromkeys(shard.plane_requests()):
                counts[request] = counts.get(request, 0) + 1
        requests.extend(
            request
            for request, count in counts.items()
            if count == self.num_shards and request not in requests
        )
        return tuple(requests)

    def _record_plane(self, plane: HashPlane) -> None:
        if self.num_shards == 1:
            self.shards[0]._record_plane(plane)
            return
        self._route_hash_ops += plane.size
        # Hash once at full vector width, then hand each shard a pure
        # gather of the arrays it will read.
        plane.prefetch(self.plane_requests())
        # analysis: allow(purity.loop) -- one iteration per shard (K),
        # each applying a vectorized sub-plane, never per item
        for shard, part in zip(
            self.shards, self.partitioner.split_plane(plane)
        ):
            if part.size:
                shard._record_plane(part)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self) -> float:
        """Sum of shard estimates — exact additivity over disjoint shards."""
        return float(sum(shard.query() for shard in self.shards))

    def shard_estimates(self) -> list[float]:
        """Per-shard estimates (diagnostics; sums to :meth:`query`)."""
        return [shard.query() for shard in self.shards]

    def memory_bits(self) -> int:
        """Total memory across shards (the partitioner itself stores none)."""
        return sum(shard.memory_bits() for shard in self.shards)

    @property
    def num_shards(self) -> int:
        """Number of shards K."""
        return self.partitioner.num_shards

    @property
    def seed(self) -> int:
        """Seed of the partition hash."""
        return self.partitioner.seed

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    def merge(self, other: CardinalityEstimator) -> None:
        """Shard-wise union with a pool over the same partition function.

        Valid only when the shard estimators are themselves mergeable:
        an item routes to the same shard index in both pools, so shard
        ``k`` of the merged pool is the sketch of the union of the two
        shard-``k`` sub-streams, and those unions remain disjoint across
        shards — additivity is preserved.
        """
        self._check_mergeable(other)
        assert isinstance(other, ShardPool)  # _check_mergeable guarantees it
        for mine, theirs in zip(self.shards, other.shards):
            mine.merge(theirs)

    def _check_mergeable(self, other: CardinalityEstimator) -> None:
        """Raise unless ``other`` is a pool over the same partition whose
        every shard matches this pool's in class and merge parameters.

        Checks every shard before :meth:`merge` touches one, so a
        mismatch in a late shard leaves the pool unchanged.
        """
        super()._check_mergeable(other)
        assert isinstance(other, ShardPool)  # the base class checked it
        self._check_merge_params(other, "num_shards", "seed")
        for mine, theirs in zip(self.shards, other.shards):
            mine._check_mergeable(theirs)

    def merged(self) -> CardinalityEstimator:
        """Collapse all shards into one sketch of the whole stream.

        Requires every shard to be mergeable and built with identical
        parameters (the :meth:`of` constructor guarantees this). Useful
        for exporting a single compact sketch after sharded ingestion.
        """
        from repro.estimators.setops import clone

        collapsed = clone(self.shards[0])
        for shard in self.shards[1:]:
            collapsed.merge(shard)
        return collapsed

    def to_bytes(self) -> bytes:
        """Serialize the whole pool (versioned header + shard blobs)."""
        return pack_entries(
            _HEADER.pack(_MAGIC, _VERSION, self.seed),
            [
                (type(shard).__name__.encode("ascii"), shard.to_bytes())
                for shard in self.shards
            ],
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardPool":
        """Restore a pool serialized by :meth:`to_bytes`.

        Each shard blob fully encodes its own configuration, so no
        factory is needed; shard classes resolve through
        :func:`~repro.estimators.registry.sketch_registry`. Framing is
        strict: a truncated shard name or blob — and any trailing bytes
        after the last shard — raise ``ValueError``.
        """
        what = "ShardPool"
        magic, version, seed = unpack_header(_HEADER, data, what)
        if magic != _MAGIC:
            raise ValueError("not a serialized ShardPool")
        if version != _VERSION:
            raise ValueError(f"unsupported ShardPool version {version}")
        registry = sketch_registry("shard")
        shards: list[CardinalityEstimator] = []
        __, entries = read_entries(data, _HEADER.size, what, "shard")
        for name, blob in entries:
            class_name = str(name, "ascii")
            shard_cls = registry.get(class_name)
            if shard_cls is None:
                raise ValueError(f"unknown shard estimator {class_name!r}")
            shards.append(shard_cls.from_bytes(blob))
        iterator = iter(shards)
        return cls(lambda __: next(iterator), len(shards), seed=seed)

    def __repr__(self) -> str:
        kinds = {type(shard).__name__ for shard in self.shards}
        return (
            f"ShardPool(num_shards={self.num_shards}, "
            f"shards={'/'.join(sorted(kinds))}, "
            f"memory_bits={self.memory_bits()})"
        )
