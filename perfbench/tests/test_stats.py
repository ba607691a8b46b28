import statistics

import pytest

from perfbench.stats import (
    bootstrap_ci,
    median,
    paired_bootstrap_delta,
    percentile,
    quartiles,
    spread,
    win_share,
)


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles(values)[1] == median(values)


def test_single_value_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([2.5]) == 0.0


def test_spread_is_iqr_over_median():
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


def test_empty_inputs_raise():
    for fn in (median, quartiles, lambda v: percentile(v, 50), bootstrap_ci):
        with pytest.raises(ValueError):
            fn([])


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == 25.0
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_bootstrap_ci_is_seeded_and_brackets_the_point():
    values = [1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 10.0, 2.2, 2.8, 3.1]
    first = bootstrap_ci(values, seed=7)
    assert first == bootstrap_ci(values, seed=7)
    point, low, high = first
    assert point == median(values)
    assert low <= point <= high


def test_paired_delta_recovers_a_uniform_slowdown():
    parent = [10.0, 11.0, 9.5, 10.5, 10.2, 9.8, 10.1, 10.4, 9.9, 10.3]
    change = [v * 1.2 for v in parent]
    point, low, high = paired_bootstrap_delta(parent, change)
    assert point == pytest.approx(0.2)
    assert low == pytest.approx(0.2) and high == pytest.approx(0.2)


def test_paired_delta_needs_equal_lengths():
    with pytest.raises(ValueError):
        paired_bootstrap_delta([1.0, 2.0], [1.0])


def test_win_share_counts_direction_and_ignores_ties():
    parent = [10.0, 10.0, 10.0, 10.0]
    change = [9.0, 11.0, 10.0, 8.0]
    assert win_share(parent, change, "lower") == 0.5
    assert win_share(parent, change, "higher") == 0.25
    with pytest.raises(ValueError):
        win_share(parent, change, "sideways")
