"""The tail-percentile rule: the highest percentile with at least ten samples beyond it."""

import numpy as np
import pytest

from perfbench.stats import median, tail_percentile


@pytest.mark.parametrize(
    ("n", "expected"), [(20, 50), (128, 92), (256, 96), (999, 98), (1000, 99), (50_000, 99)]
)
def test_percentile_choice(n, expected):
    percentile, _, count = tail_percentile(np.arange(n, dtype=float))
    assert (percentile, count) == (expected, n)


@pytest.mark.parametrize("n", range(20, 1200, 7))
def test_at_least_ten_samples_beyond(n):
    values = np.random.default_rng(n).permutation(n).astype(float)
    _, value, _ = tail_percentile(values)
    assert np.count_nonzero(values > value) >= 10


def test_value_is_the_numpy_percentile():
    values = np.random.default_rng(0).exponential(size=5000)
    assert tail_percentile(values)[1] == np.percentile(values, 99)


def test_too_few_samples_raise():
    with pytest.raises(ValueError):
        tail_percentile(np.ones(19))


def test_median():
    assert median([3, 1, 2]) == 2.0
    assert median([1, 2, 3, 4]) == 2.5
