"""Tests of the Self-Morphing Bitmap — the paper's Algorithms 1-2 and
the properties proved in §III."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SelfMorphingBitmap
from repro.core.smb import round_constants, step1_mask
from repro.core.theory import smb_error_bound
from repro.core.tuning import smb_max_estimate
from repro.hashing import trailing_zeros_array
from repro.streams import distinct_items


class TestConstruction:
    def test_defaults(self):
        smb = SelfMorphingBitmap(5000, threshold=500)
        assert smb.m == 5000
        assert smb.T == 500
        assert smb.r == 0
        assert smb.v == 0
        assert smb.sampling_probability == 1.0
        assert smb.max_rounds == 10

    def test_auto_threshold(self):
        smb = SelfMorphingBitmap(5000, design_cardinality=1_000_000)
        assert 1 <= smb.T <= 2500
        # Range must cover the design cardinality.
        assert smb.max_estimate() >= 1_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            SelfMorphingBitmap(2)
        with pytest.raises(ValueError):
            SelfMorphingBitmap(100, threshold=0)
        with pytest.raises(ValueError):
            SelfMorphingBitmap(100, threshold=51)  # > m/2

    @pytest.mark.parametrize(
        "m, threshold",
        [(10_000, t) for t in range(1, 10)] + [(2**20, 1024), (1024, 1)],
    )
    def test_too_many_rounds_is_a_value_error(self, m, threshold):
        """Round i scales by 2^i·m; past float64's range math.ldexp raises
        OverflowError, which MERGE_IN answered as an internal error rather
        than a bad payload. ``round_constants`` checks the range for the
        constructor and the theory helpers alike."""
        for call in (
            lambda: SelfMorphingBitmap(m, threshold=threshold),
            lambda: smb_max_estimate(m, threshold),
            lambda: smb_error_bound(0.1, 1e6, m, threshold),
        ):
            with pytest.raises(ValueError, match="largest supported m // T"):
                call()

    @given(data=st.data())
    def test_constructor_domain(self, data):
        """Every (m, T) with T in [1, m // 2] builds or raises ValueError."""
        m = data.draw(st.integers(4, 2**20), label="m")
        threshold = data.draw(st.integers(1, m // 2), label="threshold")
        try:
            SelfMorphingBitmap(m, threshold=threshold)
        except ValueError:
            pass

    def test_round_constants_prefix(self):
        s = round_constants(1000, 100)
        assert s[0] == 0.0
        assert np.all(np.diff(s[:-1]) > 0)  # strictly increasing
        # First round estimate is the plain bitmap estimate at U = T.
        assert s[1] == pytest.approx(-1000 * math.log(1 - 100 / 1000))

    def test_round_constants_saturation_entry(self):
        # m divisible by T: the final entry is infinite (full bitmap).
        assert math.isinf(round_constants(1000, 100)[-1])
        # Not divisible: a partial last round keeps it finite.
        assert math.isfinite(round_constants(1000, 99)[-1])
        # m // T = 1000 is within float64's 1023 - log2(m) rounds.
        assert math.isfinite(smb_max_estimate(1000, 1))


class TestRoundProgression:
    def test_rounds_advance_with_volume(self):
        smb = SelfMorphingBitmap(1000, threshold=100, seed=0)
        smb.record_many(distinct_items(5000, seed=1))
        assert smb.r >= 1
        assert smb.sampling_probability == 2.0 ** -smb.r

    def test_ones_invariant(self):
        # Algorithm 1 maintains ones == r*T + v exactly.
        smb = SelfMorphingBitmap(1000, threshold=100, seed=0)
        items = distinct_items(3000, seed=2)
        for i, item in enumerate(items.tolist()):
            smb.record(item)
            if i % 500 == 0:
                assert smb._bits.ones == smb.r * smb.T + smb.v

    def test_v_stays_below_threshold(self):
        smb = SelfMorphingBitmap(1000, threshold=50, seed=0)
        for item in distinct_items(4000, seed=3).tolist():
            smb.record(item)
            assert smb.v < smb.T

    def test_logical_bits_shrink(self):
        smb = SelfMorphingBitmap(1000, threshold=100, seed=0)
        assert smb.logical_bits == 1000
        smb.record_many(distinct_items(500, seed=4))
        assert smb.logical_bits == 1000 - smb.r * 100

    def test_sampling_filters_items(self):
        # Once r > 0, a fraction of arrivals must be dropped at Step 1:
        # hash_ops per item drops below 2.
        smb = SelfMorphingBitmap(1000, threshold=100, seed=0)
        smb.record_many(distinct_items(50_000, seed=5))
        assert smb.r >= 3
        smb.reset_counters()
        fresh = distinct_items(10_000, seed=6)
        smb.record_many(fresh)
        # Every item costs 1 geometric hash; only ~2^-r pass to hash 2.
        passed = smb.hash_ops - fresh.size
        expected = fresh.size * smb.sampling_probability
        assert passed < 4 * expected


class TestQuery:
    def test_matches_algorithm2_formula(self):
        smb = SelfMorphingBitmap(1000, threshold=100, seed=0)
        smb.record_many(distinct_items(2000, seed=7))
        s = smb.round_prefix
        m_r = 1000 - smb.r * 100
        expected = s[smb.r] - (2.0 ** smb.r) * 1000 * math.log(1 - smb.v / m_r)
        assert smb.query() == pytest.approx(expected)

    def test_estimate_at_matches_query(self):
        smb = SelfMorphingBitmap(1000, threshold=100, seed=0)
        smb.record_many(distinct_items(2000, seed=8))
        assert smb.estimate_at(smb.r, smb.v) == pytest.approx(
            smb.query(), rel=1e-12
        )

    def test_estimate_at_validation(self):
        smb = SelfMorphingBitmap(1000, threshold=100)
        with pytest.raises(ValueError):
            smb.estimate_at(99, 0)
        with pytest.raises(ValueError):
            smb.estimate_at(0, 1000)

    def test_query_is_o1_in_bits(self):
        # Algorithm 2 reads two counters: 32 bits per the paper.
        smb = SelfMorphingBitmap(10_000, threshold=833, seed=0)
        smb.record_many(distinct_items(100_000, seed=9))
        smb.reset_counters()
        smb.query()
        assert smb.bits_accessed == 32


class TestAccuracy:
    @pytest.mark.parametrize("n", [100, 1_000, 10_000, 100_000, 1_000_000])
    def test_relative_error_envelope(self, n):
        errors = []
        for seed in range(5):
            smb = SelfMorphingBitmap(10_000, threshold=833, seed=seed)
            smb.record_many(distinct_items(n, seed=seed + 31))
            errors.append(abs(smb.query() - n) / n)
        assert float(np.mean(errors)) < 0.08

    def test_small_stream_is_plain_bitmap(self):
        # Round 0 samples everything: SMB == bitmap estimate.
        smb = SelfMorphingBitmap(1000, threshold=100, seed=0)
        for i in range(20):
            smb.record(i)
        assert smb.r == 0
        assert smb.query() == pytest.approx(-1000 * math.log(1 - smb.v / 1000))

    def test_near_zero_bias_at_scale(self):
        n = 200_000
        estimates = [
            SelfMorphingBitmap(10_000, threshold=833, seed=s)
            for s in range(10)
        ]
        for seed, smb in enumerate(estimates):
            smb.record_many(distinct_items(n, seed=seed + 77))
        bias = float(np.mean([smb.query() / n - 1 for smb in estimates]))
        assert abs(bias) < 0.03


class TestSaturation:
    def test_saturated_estimate_clamps(self):
        smb = SelfMorphingBitmap(64, threshold=8, seed=0)
        smb.record_many(distinct_items(10_000_000, seed=10))
        assert smb.query() <= smb.max_estimate()
        assert math.isfinite(smb.query())

    def test_saturated_flag(self):
        smb = SelfMorphingBitmap(64, threshold=8, seed=0)
        assert not smb.saturated
        smb.record_many(distinct_items(10_000_000, seed=11))
        # 10M >> max estimate of a 64-bit SMB: every bit must be set.
        assert smb._bits.ones == 64
        assert smb.saturated

    def test_partial_last_round(self):
        # m % T != 0: a final partial round extends the range.
        smb = SelfMorphingBitmap(100, threshold=30, seed=0)
        assert smb.max_rounds == 3
        smb.record_many(distinct_items(1_000_000, seed=12))
        assert smb.r <= 3
        assert math.isfinite(smb.query())

    def test_query_is_single_snapshot_under_racing_morph(self):
        """query() must read (r, v) exactly once each.

        The serving layer's lock-light ESTIMATE path can interleave
        with a recorder's morph (``r += 1; v = 0``). Simulate the
        reader-side view that used to crash: the saturation check sees
        the pre-morph round, later reads see the advanced one, while v
        still shows the pre-morph count — a multi-read query computed
        ln(1 - 15/10) and raised ValueError. m=100, T=30 puts the
        morph into the final partial round (m_r = 10 < v = 15).
        """
        r_reads = iter([2])  # first read pre-morph, every later read 3

        class TornSMB(SelfMorphingBitmap):
            r = property(lambda self: next(r_reads, 3))
            v = property(lambda self: 15)

        template = SelfMorphingBitmap(100, threshold=30, seed=0)
        torn = TornSMB.__new__(TornSMB)
        torn.__dict__.update(template.__dict__)
        assert math.isfinite(torn.query())

    def test_max_estimate_exceeds_mrb(self):
        # §III-B: with component size T, SMB's range beats MRB's.
        m, t = 5000, 500
        k = m // t
        smb_max = SelfMorphingBitmap(m, threshold=t).max_estimate()
        mrb_max = (2 ** (k - 1)) * t * math.log(t)
        assert smb_max > mrb_max


class TestTheorem2:
    """Duplicates are never recorded (first appearance wins)."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        items=st.lists(st.integers(0, 1 << 64), min_size=1, max_size=300),
        repeats=st.integers(1, 3),
    )
    def test_replay_never_changes_state(self, items, repeats):
        smb = SelfMorphingBitmap(500, threshold=50, seed=0)
        for item in items:
            smb.record(item)
        state = (smb.r, smb.v, smb._bits.to_bytes())
        for __ in range(repeats):
            for item in items:
                smb.record(item)
        assert (smb.r, smb.v, smb._bits.to_bytes()) == state


class TestBatchExactness:
    """The batch path must be bit-for-bit equal to sequential recording,
    including across round crossings (the hard case)."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 1000), n=st.integers(1, 3000))
    def test_batch_state_equals_scalar_state(self, seed, n):
        items = distinct_items(n, seed=seed)
        batch = SelfMorphingBitmap(300, threshold=25, seed=1)
        scalar = SelfMorphingBitmap(300, threshold=25, seed=1)
        batch.record_many(items)
        for item in items.tolist():
            scalar.record(item)
        assert batch.r == scalar.r
        assert batch.v == scalar.v
        assert batch._bits == scalar._bits

    @settings(max_examples=25, deadline=None)
    @given(drawn=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_step1_mask_is_the_geometric_filter(self, drawn):
        # G(d) >= r exactly when the low r bits of H(d) are zero. G never
        # exceeds 64: only H(d) = 0 passes at r = 64, nothing past it.
        hashes = np.array([0, 1, 1 << 63, 2**64 - 1, *drawn], dtype=np.uint64)
        levels = trailing_zeros_array(hashes)
        for r in range(71):
            assert np.array_equal(step1_mask(hashes, r), levels >= r), r
        assert np.array_equal(step1_mask(hashes, 64), hashes == 0)
        assert not step1_mask(hashes, 65).any()

    def test_many_crossings(self):
        # Tiny T forces a crossing in almost every chunk.
        items = distinct_items(30_000, seed=13)
        batch = SelfMorphingBitmap(600, threshold=3, seed=2)
        scalar = SelfMorphingBitmap(600, threshold=3, seed=2)
        batch.record_many(items)
        for item in items.tolist():
            scalar.record(item)
        assert (batch.r, batch.v) == (scalar.r, scalar.v)
        assert batch._bits == scalar._bits


class TestSerialization:
    def test_roundtrip(self):
        smb = SelfMorphingBitmap(1000, threshold=100, seed=5)
        smb.record_many(distinct_items(5000, seed=14))
        restored = SelfMorphingBitmap.from_bytes(smb.to_bytes())
        assert restored.query() == smb.query()
        assert (restored.m, restored.T, restored.r, restored.v) == (
            smb.m, smb.T, smb.r, smb.v,
        )
        # Restored estimator keeps recording identically.
        extra = distinct_items(1000, seed=15)
        smb.record_many(extra)
        restored.record_many(extra)
        assert restored.query() == smb.query()

    def test_corrupt_invariant_rejected(self):
        smb = SelfMorphingBitmap(1000, threshold=100, seed=5)
        smb.record_many(distinct_items(500, seed=16))
        data = bytearray(smb.to_bytes())
        data[12] ^= 0x01  # tamper with the T field
        with pytest.raises(ValueError):
            SelfMorphingBitmap.from_bytes(bytes(data))

    def test_wrong_magic_rejected(self):
        with pytest.raises(ValueError):
            SelfMorphingBitmap.from_bytes(b"XXXX" + b"\0" * 64)


class TestMerge:
    def test_merge_unsupported_with_reason(self):
        a = SelfMorphingBitmap(1000, threshold=100)
        b = SelfMorphingBitmap(1000, threshold=100)
        with pytest.raises(NotImplementedError, match="arrival order"):
            a.merge(b)
