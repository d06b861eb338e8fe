"""Tests for parameter tuning: optimal T (Table II) and MRB sizing
(Table III)."""

import pytest

from repro.core import tuning
from repro.core.tuning import (
    DEFAULT_DELTA,
    TABLE_III,
    MRBParameters,
    mrb_parameters,
    optimal_threshold,
    optimal_threshold_table,
    smb_max_estimate,
)
from repro.serve.tenants import TenantConfig

#: Table II as the §IV-B search computes it at δ = 0.1: the optimal T
#: per memory m (keys) and design cardinality n (columns, in the order
#: of TABLE_II_CARDINALITIES).
TABLE_II_CARDINALITIES = (
    80_000, 100_000, 200_000, 300_000, 400_000, 500_000,
    600_000, 700_000, 800_000, 900_000, 1_000_000,
)
TABLE_II = {
    1_000: (166, 166, 142, 125, 111, 111, 111, 100, 100, 100, 100),
    2_500: (277, 312, 192, 227, 178, 192, 208, 208, 166, 178, 178),
    5_000: (625, 714, 416, 500, 384, 416, 454, 454, 357, 500, 384),
    10_000: (1428, 1666, 1428, 1111, 1250, 1250, 1000, 1000, 769, 1111, 833),
}


class TestSmbMaxEstimate:
    def test_grows_with_rounds(self):
        # Smaller T -> more rounds -> exponentially larger range.
        assert smb_max_estimate(1000, 100) > smb_max_estimate(1000, 333)

    def test_single_bitmap_range(self):
        # T = m/2: two rounds; range comfortably beyond m ln m.
        import math

        assert smb_max_estimate(1000, 500) > 1000 * math.log(1000)


class TestOptimalThreshold:
    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_threshold(2, 100)
        with pytest.raises(ValueError):
            optimal_threshold(1000, 0)
        for __ in range(2):  # a failed search is not cached
            with pytest.raises(ValueError):
                optimal_threshold(1000, 100, delta=1.5)
        # δ is checked up front, not only where the search evaluates β
        # (no ratio of a 4-bit budget covers 10^9).
        for delta in (5, 0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match="delta"):
                optimal_threshold(4, 10**9, delta=delta)

    def test_range_covers_design_cardinality(self):
        for m in (1_000, 2_500, 5_000, 10_000):
            t = optimal_threshold(m, 1_000_000)
            assert smb_max_estimate(m, t) >= 1_000_000

    def test_plausible_round_counts(self):
        # The paper's optima give m/T in the 8-32 range for these
        # budgets (comparable to MRB's k in Table III).
        for m in (1_000, 2_500, 5_000, 10_000):
            t = optimal_threshold(m, 1_000_000)
            assert 5 <= m // t <= 40, f"m={m}, T={t}"

    def test_smaller_cardinality_allows_larger_t(self):
        t_small = optimal_threshold(10_000, 10_000)
        t_large = optimal_threshold(10_000, 10_000_000)
        assert t_small >= t_large

    def test_tiny_memory_falls_back_to_widest_range(self):
        # 64 bits cannot cover 10M items; must still return a valid T.
        t = optimal_threshold(64, 10_000_000)
        assert 1 <= t <= 32

    def test_table_generation(self):
        table = optimal_threshold_table(
            memory_grid=[5_000], cardinality_grid=[100_000, 1_000_000]
        )
        assert set(table) == {(5_000, 100_000), (5_000, 1_000_000)}
        assert all(1 <= t <= 2_500 for t in table.values())

    def test_table_ii_pinned(self):
        expected = {
            (m, n): t
            for m, row in TABLE_II.items()
            for n, t in zip(TABLE_II_CARDINALITIES, row)
        }
        assert len(expected) == 44
        assert optimal_threshold_table() == expected

    def test_search_runs_once_per_configuration(self):
        tuning._threshold_search.cache_clear()
        default = TenantConfig()
        bulk = TenantConfig(
            memory_bits=10_000, shards=4, design_cardinality=1 << 24
        )
        builds = [(default, default.build_pool(f"t{i}")) for i in range(10)]
        builds.append((bulk, bulk.build_pool("bulk")))
        assert tuning._threshold_search.cache_info().misses == 2
        uncached = tuning._threshold_search.__wrapped__
        for config, pool in builds:
            shard_design = config.design_cardinality // config.shards
            for shard in pool.shards:
                expected = uncached(shard.m, shard_design, DEFAULT_DELTA)
                assert shard.T == expected


class TestMrbParameters:
    def test_paper_grid_exact(self):
        assert mrb_parameters(5_000, 1_000_000) == MRBParameters(416, 12)
        assert mrb_parameters(10_000, 80_000) == MRBParameters(1428, 7)
        assert mrb_parameters(1_000, 500_000) == MRBParameters(71, 14)

    def test_rounds_up_to_covering_row(self):
        # n = 450k not tabulated: use the 500k row.
        assert mrb_parameters(2_500, 450_000) == TABLE_III[(2_500, 500_000)]

    def test_above_table_uses_largest_row(self):
        assert mrb_parameters(5_000, 5_000_000) == TABLE_III[(5_000, 1_000_000)]

    def test_component_budget_consistent(self):
        for (m, __), params in TABLE_III.items():
            assert params.total_bits <= m
            assert params.total_bits >= 0.9 * m

    def test_analytic_fallback(self):
        params = mrb_parameters(8_000, 1_000_000)
        assert params.total_bits <= 8_000
        assert params.num_components >= 3
        # Range must cover the cardinality.
        import math

        reach = (2 ** (params.num_components - 1)) * params.component_bits * math.log(
            params.component_bits
        )
        assert reach >= 1_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            mrb_parameters(10, 1000)
        with pytest.raises(ValueError):
            mrb_parameters(5000, 0)
