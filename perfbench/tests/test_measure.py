"""Percentiles come with their sample counts; quartiles match statistics."""

import statistics

import measure


def test_summary_reports_percentiles_with_the_sample_count():
    values = list(range(1, 1001))
    got = measure.summary(values, scale=2.0)
    assert got["n"] == 1000
    assert got["p50"] == 1001.0
    assert got["p90"] == 2 * 900.1
    assert abs(got["p99"] - 2 * 990.01) < 1e-9


def test_summary_of_nothing_has_zero_samples():
    assert measure.summary([]) == {"p50": 0.0, "p90": 0.0, "p99": 0.0, "n": 0}


def test_quartiles_are_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.9]
    assert measure.quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_steal_share():
    assert measure.steal_pct((10, 1000), (30, 1400)) == 5.0
    assert measure.steal_pct((0, 5), (0, 5)) == 0.0
