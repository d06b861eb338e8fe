"""Unit tests of the kernels layer: hash planes.

The estimator contract tests assert the end-to-end guarantee (plane
recording ≡ scalar recording); here the layer's own pieces are pinned
directly: plane arrays match the hashing-module oracles, memoization
returns the same object, and ``take``/``prefetch`` gather instead of
re-hashing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import GeometricHash, UniformHash
from repro.kernels import (
    HashPlane,
    geometric_request,
    positions_request,
    uniform_request,
)
from repro.streams import distinct_items

VALUES = distinct_items(4096, seed=13)


class TestHashPlane:
    def test_uniform_matches_oracle(self):
        plane = HashPlane(VALUES)
        for seed in (0, 7, 0x504F53):
            expected = UniformHash(seed).hash_array(VALUES)
            assert np.array_equal(plane.uniform(seed), expected)

    def test_geometric_matches_oracle(self):
        plane = HashPlane(VALUES)
        for seed in (0, 7):
            expected = GeometricHash(seed).value_array(VALUES)
            assert np.array_equal(plane.geometric(seed), expected)

    def test_positions_match_oracle(self):
        plane = HashPlane(VALUES)
        expected = UniformHash(3).hash_array(VALUES) % np.uint64(5000)
        assert np.array_equal(plane.positions(3, 5000), expected)

    def test_memoization_returns_same_array(self):
        plane = HashPlane(VALUES)
        assert plane.uniform(9) is plane.uniform(9)
        assert plane.geometric(9) is plane.geometric(9)
        assert plane.positions(9, 100) is plane.positions(9, 100)
        # Distinct keys stay distinct.
        assert plane.positions(9, 100) is not plane.positions(9, 101)

    def test_of_canonicalizes(self):
        from_items = HashPlane.of(["a", "b", 3])
        assert from_items.size == 3
        assert from_items.values.dtype == np.uint64

    def test_prefetch_materializes_requests(self):
        plane = HashPlane(VALUES)
        requests = (
            uniform_request(1),
            geometric_request(2),
            positions_request(3, 777),
        )
        plane.prefetch(requests)
        materialized = plane.materialized()
        for request in requests:
            assert request in materialized

    def test_prefetch_rejects_unknown_kind(self):
        plane = HashPlane(VALUES)
        with pytest.raises(ValueError, match="unknown plane request"):
            plane.prefetch([("md5", 0)])

    def test_take_gathers_materialized_arrays(self):
        plane = HashPlane(VALUES)
        plane.prefetch([uniform_request(4), positions_request(5, 600)])
        indices = np.flatnonzero(VALUES % np.uint64(3) == 0)
        child = plane.take(indices)
        assert np.array_equal(child.values, VALUES[indices])
        # Gathered, not re-hashed — and still correct.
        assert set(child.materialized()) >= set(plane.materialized())
        assert np.array_equal(
            child.uniform(4), UniformHash(4).hash_array(VALUES[indices])
        )
        # Arrays requested only on the child are computed at child width.
        assert child.geometric(6).size == indices.size

    def test_take_child_owns_copies(self):
        plane = HashPlane(VALUES)
        plane.prefetch([uniform_request(8)])
        child = plane.take(np.arange(16))
        child.uniform(8)[:] = 0
        assert plane.uniform(8)[:16].any()  # parent untouched


class TestPartitionerPlanes:
    def test_split_plane_matches_split(self):
        from repro.engine.partition import Partitioner

        for num_shards in (1, 4, 40):
            partitioner = Partitioner(num_shards, seed=2)
            plane = HashPlane(VALUES)
            plane.prefetch([uniform_request(11)])
            arrays = partitioner.split(VALUES)
            planes = partitioner.split_plane(plane)
            assert len(arrays) == len(planes) == num_shards
            for part, sub in zip(arrays, planes):
                assert np.array_equal(part, sub.values)
                # Gathered arrays line up with a fresh hash of the part.
                assert np.array_equal(
                    sub.uniform(11), UniformHash(11).hash_array(part)
                )

    @settings(deadline=None)
    @given(
        values=st.lists(st.integers(0, 2**64 - 1), max_size=300),
        seed=st.integers(0, 2**32),
    )
    def test_split_plane_is_a_stable_grouping(self, values, seed):
        from repro.engine.partition import Partitioner

        values = np.array(values, dtype=np.uint64)
        requests = [
            uniform_request(11), geometric_request(12),
            positions_request(13, 977),
        ]
        for num_shards in (1, 2, 3, 4, 8, 32, 33, 256, 257):
            partitioner = Partitioner(num_shards, seed=seed)
            plane = HashPlane(values)
            plane.prefetch(requests)
            ids = partitioner.shard_ids(values)
            parts = partitioner.split_plane(plane)
            assert len(parts) == num_shards
            for shard, part in enumerate(parts):
                # Arrival order within the shard, every array alike.
                mine = ids == shard
                assert set(part.materialized()) == set(plane.materialized())
                assert np.array_equal(part.values, values[mine])
                assert np.array_equal(
                    part.uniform(11), plane.uniform(11)[mine]
                )
                assert np.array_equal(
                    part.geometric(12), plane.geometric(12)[mine]
                )
                assert np.array_equal(
                    part.positions(13, 977), plane.positions(13, 977)[mine]
                )

    def test_split_with_32_bit_shard_ids(self):
        from repro.engine.partition import Partitioner

        num_shards = 65_537  # ids past 16 bits: no longer a radix sort
        partitioner = Partitioner(num_shards, seed=4)
        values = VALUES[:500]
        ids = partitioner.shard_ids(values)
        parts = partitioner.split(values)
        assert [part.size for part in parts] == np.bincount(
            ids.astype(np.int64), minlength=num_shards
        ).tolist()
        assert np.array_equal(
            np.concatenate(parts), values[np.argsort(ids, kind="stable")]
        )
