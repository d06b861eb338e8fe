"""Table II: optimal SMB threshold search (§IV-B numerical computing).

Benchmarks the optimizer itself and asserts the structural properties
the paper's table exhibits: every chosen configuration covers its design
cardinality and the round counts sit in the same band as MRB's k.
"""

from _helpers import NAMES  # noqa: F401  (suite-wide import parity)
from repro.core import tuning
from repro.core.tuning import (
    optimal_threshold,
    optimal_threshold_table,
    smb_max_estimate,
)


def test_optimal_threshold_search(benchmark):
    # Each round empties the search's cache first, so it times the
    # search rather than a cache hit.
    benchmark.pedantic(
        optimal_threshold,
        args=(5_000, 1_000_000),
        setup=tuning._threshold_search.cache_clear,
        rounds=20,
    )


def test_table_shapes():
    table = optimal_threshold_table()
    for (m, n), t in table.items():
        assert 1 <= t <= m // 2
        assert smb_max_estimate(m, t) >= n
        assert 4 <= m // t <= 64
