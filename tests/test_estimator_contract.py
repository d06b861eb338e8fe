"""Generic contract tests that every estimator must satisfy.

These run against the full estimator zoo (see conftest.py): the SMB
core, every baseline, the exact counter, and the engine's sharded pool.
Two hypothesis properties pin the strongest claims of the library:

- ``record_many(xs)`` is *bit-for-bit* equivalent to a sequential
  ``record`` loop (the claim in ``repro.estimators.base``'s docstring),
  asserted on the serialized state, not just the estimate;
- ``to_bytes``/``from_bytes`` round-trips preserve ``query()`` and
  ``memory_bits()`` and continue recording identically.

``TestClassContract`` checks the classes themselves: every concrete
subclass of the base is known, named, exported and reads only the hash
arrays it advertises.
"""

import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.estimators
from repro import (
    CardinalityEstimator,
    ExactCounter,
    HashPlane,
    HyperLogLogTailCut,
    SelfMorphingBitmap,
    ShardPool,
)
from repro.streams import distinct_items

item_lists = st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=400)

#: Health-check suppressions for @given tests over the zoo fixture.
FIXTURE_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


def roundtrip_or_skip(estimator):
    """Serialize-deserialize, skipping estimators without serialization."""
    try:
        blob = estimator.to_bytes()
    except NotImplementedError:
        pytest.skip(f"{type(estimator).__name__} does not serialize")
    return type(estimator).from_bytes(blob)


class TestBasicContract:
    def test_empty_estimate_is_zero(self, estimator_factory):
        estimator = estimator_factory()
        assert estimator.query() == pytest.approx(0.0, abs=1e-9)

    def test_single_item(self, estimator_factory):
        estimator = estimator_factory()
        estimator.record("item")
        assert estimator.query() == pytest.approx(1.0, rel=0.5)

    def test_accepts_int_str_bytes(self, estimator_factory):
        estimator = estimator_factory()
        estimator.record(42)
        estimator.record("string")
        estimator.record(b"bytes")
        assert estimator.query() > 0

    def test_rejects_floats(self, estimator_factory):
        estimator = estimator_factory()
        with pytest.raises(TypeError):
            estimator.record(1.5)

    def test_memory_bits_positive(self, estimator_factory):
        estimator = estimator_factory()
        estimator.record("x")
        assert estimator.memory_bits() > 0

    def test_query_does_not_mutate(self, estimator_factory):
        estimator = estimator_factory()
        estimator.record_many(distinct_items(500, seed=3))
        first = estimator.query()
        for __ in range(5):
            assert estimator.query() == first

    def test_repr(self, estimator_factory):
        estimator = estimator_factory()
        assert type(estimator).__name__ in repr(estimator)


class TestDuplicateInsensitivity:
    """Theorem 2 (for SMB) and its analogue for every other estimator:
    re-recording an already-seen item never changes the estimate."""

    def test_duplicates_do_not_change_estimate(self, estimator_factory):
        estimator = estimator_factory()
        items = distinct_items(1000, seed=1)
        estimator.record_many(items)
        before = estimator.query()
        estimator.record_many(items)  # replay the whole stream
        estimator.record_many(items[::7])
        assert estimator.query() == before

    def test_interleaved_duplicates(self, estimator_factory):
        stream = ["a", "b", "a", "c", "b", "a", "c", "c"]
        deduped = ["a", "b", "c"]
        first = estimator_factory()
        for item in stream:
            first.record(item)
        second = estimator_factory()
        for item in deduped:
            second.record(item)
        assert first.query() == second.query()


class TestBatchEquivalence:
    """record_many must match a sequential record loop."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(items=item_lists)
    def test_batch_equals_scalar(self, estimator_factory, items):
        batch = estimator_factory()
        scalar = estimator_factory()
        batch.record_many(np.asarray(items, dtype=np.uint64))
        for item in items:
            scalar.record(item)
        if isinstance(batch, HyperLogLogTailCut):
            # The tail-cut base may normalize at chunk rather than item
            # granularity; states agree except on a 2^-15 tail event.
            assert batch.query() == pytest.approx(scalar.query(), rel=1e-6)
        else:
            assert batch.query() == scalar.query()

    def test_batch_equals_scalar_large(self, estimator_factory):
        items = distinct_items(20_000, seed=9)
        batch = estimator_factory()
        scalar = estimator_factory()
        batch.record_many(items)
        scalar.record_many(items.tolist())  # list path still canonicalizes
        assert batch.query() == pytest.approx(scalar.query(), rel=1e-9)

    def test_split_batches_equal_one_batch(self, estimator_factory):
        items = distinct_items(5000, seed=4)
        whole = estimator_factory()
        whole.record_many(items)
        parts = estimator_factory()
        for start in range(0, items.size, 613):
            parts.record_many(items[start:start + 613])
        assert parts.query() == pytest.approx(whole.query(), rel=1e-9)

    def test_empty_batch_is_noop(self, estimator_factory):
        estimator = estimator_factory()
        estimator.record_many(np.array([], dtype=np.uint64))
        assert estimator.query() == pytest.approx(0.0, abs=1e-9)


class TestBitForBitEquivalence:
    """The base-class docstring's strongest claim, asserted literally:
    the batch path leaves the estimator in the *same serialized state*
    as the sequential path, for every serializable estimator."""

    @settings(**FIXTURE_SETTINGS)
    @given(items=item_lists)
    def test_batch_state_equals_scalar_state(self, estimator_factory, items):
        batch = estimator_factory()
        scalar = estimator_factory()
        if isinstance(batch, HyperLogLogTailCut):
            pytest.skip(
                "tail-cut base normalizes at chunk granularity; state may "
                "diverge on a 2^-15 tail event (query-level equivalence is "
                "covered by TestBatchEquivalence)"
            )
        batch.record_many(np.asarray(items, dtype=np.uint64))
        for item in items:
            scalar.record(item)
        try:
            assert batch.to_bytes() == scalar.to_bytes()
        except NotImplementedError:
            pytest.skip(f"{type(batch).__name__} does not serialize")

    @settings(**FIXTURE_SETTINGS)
    @given(items=item_lists, boundary=st.integers(0, 400))
    def test_split_batch_state(self, estimator_factory, items, boundary):
        # Splitting one batch at an arbitrary boundary must not change
        # the final state either (chunking is an implementation detail).
        boundary = min(boundary, len(items))
        whole = estimator_factory()
        split = estimator_factory()
        if isinstance(whole, HyperLogLogTailCut):
            pytest.skip("tail-cut state equivalence is chunk-granular")
        array = np.asarray(items, dtype=np.uint64)
        whole.record_many(array)
        split.record_many(array[:boundary])
        split.record_many(array[boundary:])
        try:
            assert whole.to_bytes() == split.to_bytes()
        except NotImplementedError:
            pytest.skip(f"{type(whole).__name__} does not serialize")


class TestPlaneEquivalence:
    """The kernels-layer contract: recording through a shared, fully
    prefetched :class:`HashPlane` is bit-for-bit the scalar loop, and a
    plane cache hit never changes the billed hash operations."""

    @settings(**FIXTURE_SETTINGS)
    @given(items=item_lists)
    def test_prefetched_plane_equals_scalar(self, estimator_factory, items):
        planar = estimator_factory()
        scalar = estimator_factory()
        if isinstance(planar, HyperLogLogTailCut):
            pytest.skip("tail-cut state equivalence is chunk-granular")
        plane = HashPlane.of(np.asarray(items, dtype=np.uint64))
        plane.prefetch(planar.plane_requests())  # warm every cache entry
        planar.record_plane(plane)
        for item in items:
            scalar.record(item)
        try:
            assert planar.to_bytes() == scalar.to_bytes()
        except NotImplementedError:
            pytest.skip(f"{type(planar).__name__} does not serialize")
        assert planar.hash_ops == scalar.hash_ops
        assert planar.bits_accessed == scalar.bits_accessed

    def test_shared_plane_across_mirrors(self, estimator_factory):
        # Two same-seed mirrors consuming ONE plane must each end up in
        # the state an independent record_many would produce — the hash
        # arrays are computed once and read twice.
        items = distinct_items(3000, seed=17)
        plane = HashPlane.of(items)
        first, second = estimator_factory(), estimator_factory()
        first.record_plane(plane)
        second.record_plane(plane)
        solo = estimator_factory()
        solo.record_many(items)
        assert first.query() == solo.query()
        assert second.query() == solo.query()
        try:
            assert first.to_bytes() == solo.to_bytes()
            assert second.to_bytes() == solo.to_bytes()
        except NotImplementedError:
            pass

    def test_plane_requests_are_materializable(self, estimator_factory):
        # Every advertised request must be a kind the plane understands.
        estimator = estimator_factory()
        plane = HashPlane.of(distinct_items(64, seed=3))
        plane.prefetch(estimator.plane_requests())
        for request in estimator.plane_requests():
            assert request in plane.materialized()


class TestSMBRoundCrossings:
    """The SMB batch path's hardest case: morphs inside a chunk.

    A small configuration (m=64, T=4 → 16 rounds) is driven far enough
    that one ``record_many`` crosses many rounds, and the scalar/batch
    split is swept across *every* offset of the stream so a crossing
    lands at each possible position within the batched remainder.
    """

    M, T = 64, 4
    STREAM = distinct_items(400, seed=77)

    def _scalar_reference(self):
        smb = SelfMorphingBitmap(self.M, threshold=self.T, seed=5)
        for value in self.STREAM.tolist():
            smb.record(value)
        return smb

    def test_many_crossings_in_one_batch(self):
        batch = SelfMorphingBitmap(self.M, threshold=self.T, seed=5)
        batch.record_many(self.STREAM)
        reference = self._scalar_reference()
        assert batch.r >= 2  # the single batch really morphed repeatedly
        assert batch.to_bytes() == reference.to_bytes()
        assert batch.hash_ops == reference.hash_ops
        assert batch.bits_accessed == reference.bits_accessed

    def test_crossing_at_every_offset(self):
        reference = self._scalar_reference()
        for offset in range(self.STREAM.size + 1):
            mixed = SelfMorphingBitmap(self.M, threshold=self.T, seed=5)
            for value in self.STREAM[:offset].tolist():
                mixed.record(value)
            mixed.record_many(self.STREAM[offset:])
            assert mixed.to_bytes() == reference.to_bytes(), offset
            assert mixed.hash_ops == reference.hash_ops, offset

    def test_batch_split_at_every_offset(self):
        reference = self._scalar_reference()
        for offset in range(0, self.STREAM.size + 1, 7):
            split = SelfMorphingBitmap(self.M, threshold=self.T, seed=5)
            split.record_many(self.STREAM[:offset])
            split.record_many(self.STREAM[offset:])
            assert split.to_bytes() == reference.to_bytes(), offset


class TestSerializationContract:
    """to_bytes/from_bytes round-trips preserve the observable surface."""

    @settings(**FIXTURE_SETTINGS)
    @given(items=item_lists)
    def test_roundtrip_preserves_query_and_memory(
        self, estimator_factory, items
    ):
        estimator = estimator_factory()
        estimator.record_many(np.asarray(items, dtype=np.uint64))
        restored = roundtrip_or_skip(estimator)
        assert restored.query() == estimator.query()
        assert restored.memory_bits() == estimator.memory_bits()

    def test_roundtrip_is_stable(self, estimator_factory):
        # Serializing the restored estimator reproduces the same bytes.
        estimator = estimator_factory()
        estimator.record_many(distinct_items(2000, seed=21))
        restored = roundtrip_or_skip(estimator)
        assert restored.to_bytes() == estimator.to_bytes()

    def test_restored_continues_bit_for_bit(self, estimator_factory):
        estimator = estimator_factory()
        estimator.record_many(distinct_items(1500, seed=22))
        restored = roundtrip_or_skip(estimator)
        extra = distinct_items(1500, seed=23)
        estimator.record_many(extra)
        restored.record_many(extra)
        assert restored.to_bytes() == estimator.to_bytes()
        assert restored.query() == estimator.query()


class TestAccuracy:
    """Every estimator must be in the right ballpark at its design scale."""

    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    def test_reasonable_estimates(self, estimator_factory, n):
        errors = []
        for seed in range(5):
            estimator = estimator_factory(seed=seed)
            estimator.record_many(distinct_items(n, seed=seed + 50))
            errors.append(abs(estimator.query() - n) / n)
        # Loose gate: mean relative error under 35% for every estimator
        # (KMV with k=78 is the weakest; the rest sit well below 10%).
        assert float(np.mean(errors)) < 0.35

    def test_monotone_in_cardinality(self, estimator_factory):
        # More distinct items should (statistically) raise the estimate.
        small = estimator_factory(seed=2)
        small.record_many(distinct_items(500, seed=11))
        large = estimator_factory(seed=2)
        large.record_many(distinct_items(50_000, seed=11))
        assert large.query() > small.query()


class TestInstrumentation:
    def test_counters_accumulate_and_reset(self, estimator_factory):
        estimator = estimator_factory()
        if isinstance(estimator, ExactCounter):
            pytest.skip("exact counter does not hash")
        estimator.record_many(distinct_items(1000, seed=5))
        assert estimator.hash_ops > 0
        estimator.reset_counters()
        assert estimator.hash_ops == 0
        assert estimator.bits_accessed == 0

    def test_scalar_and_batch_count_same_hash_ops(self, estimator_factory):
        estimator = estimator_factory()
        if isinstance(estimator, ExactCounter):
            pytest.skip("exact counter does not hash")
        items = distinct_items(2000, seed=6)
        batch = estimator_factory()
        batch.record_many(items)
        scalar = estimator_factory()
        for item in items.tolist():
            scalar.record(item)
        assert batch.hash_ops == scalar.hash_ops


def concrete_estimator_classes() -> list[type]:
    """Every non-abstract estimator class the library defines."""
    found: set[type] = set()
    stack = [CardinalityEstimator]
    while stack:
        for subclass in stack.pop().__subclasses__():
            stack.append(subclass)
            if subclass.__module__.startswith("repro.") and not (
                inspect.isabstract(subclass)
            ):
                found.add(subclass)
    return sorted(found, key=lambda cls: cls.__name__)


def build_for_plane_test(cls: type) -> CardinalityEstimator:
    """``for_workload(5000, 10**5)``; the exact counter and the pool are
    built as in ``conftest.py``, since neither sizes from a workload."""
    if cls is ExactCounter:
        return ExactCounter()
    if cls is ShardPool:
        return ShardPool.of("SMB", 5000, 4, seed=0)
    return cls.for_workload(5000, 10**5)


class TestClassContract:
    """The library-wide estimator contract, checked on the live classes."""

    def test_concrete_classes_are_pinned(self):
        # A class that loses _record_u64, query or memory_bits turns
        # abstract and drops out of this set.
        assert [cls.__name__ for cls in concrete_estimator_classes()] == [
            "AdaptiveBitmap",
            "Bitmap",
            "ExactCounter",
            "FMSketch",
            "HyperLogLog",
            "HyperLogLogPlusPlus",
            "HyperLogLogTailCut",
            "HyperLogLogTailCutPlus",
            "KMinValues",
            "LogLog",
            "MultiResolutionBitmap",
            "RefinedHyperLogLog",
            "SelfMorphingBitmap",
            "ShardPool",
            "SuperLogLog",
        ]

    def test_display_names_are_own_and_distinct(self):
        # Bench tables and the engine CLI key on the display name, so
        # an inherited one (the base's or a parent's) is a collision.
        names = [cls.name for cls in concrete_estimator_classes()]
        assert CardinalityEstimator.name not in names
        assert len(set(names)) == len(names), sorted(names)

    def test_estimator_package_classes_are_exported(self):
        unexported = [
            cls.__name__
            for cls in concrete_estimator_classes()
            if cls.__module__.startswith("repro.estimators.")
            and cls.__name__ not in repro.estimators.__all__
        ]
        assert unexported == []

    @pytest.mark.parametrize(
        "cls", concrete_estimator_classes(), ids=lambda cls: cls.__name__
    )
    def test_record_plane_reads_only_requested_arrays(self, cls):
        # A hash array read but not advertised defeats the pool and
        # pipeline prefetch: every shard would re-hash its chunk.
        estimator = build_for_plane_test(cls)
        plane = HashPlane.of(distinct_items(4096, seed=23))
        plane.prefetch(estimator.plane_requests())
        prefetched = set(plane.materialized())
        estimator.record_plane(plane)
        assert set(plane.materialized()) == prefetched
