"""The "tail" percentile rule and its sample-count edge cases."""

import pytest

from benchlib import stats


@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_no_tail_at_ten_samples_or_fewer(n):
    assert stats.tail_percentile(n) is None
    assert stats.pooled_tail([list(range(n))]) is None


@pytest.mark.parametrize("n, p", [(11, 9), (20, 50), (36, 72), (40, 75),
                                  (100, 90), (120, 91), (1000, 99),
                                  (100000, 99)])
def test_tail_percentile(n, p):
    assert stats.tail_percentile(n) == p


@pytest.mark.parametrize("n", range(11, 400))
def test_tail_leaves_at_least_ten_beyond_and_is_the_highest(n):
    values = list(range(n))
    p, value = stats.pooled_tail([values])
    assert sum(v > value for v in values) >= stats.TAIL_BEYOND
    if p < 99:  # one percentile higher would leave fewer than ten beyond
        higher = stats.percentile(values, p + 1)
        assert sum(v > higher for v in values) < stats.TAIL_BEYOND


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert stats.percentile(values, 20) == 1
    assert stats.percentile(values, 50) == 3
    assert stats.percentile(values, 100) == 5
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(values, 0)


def test_pooled_tail_keeps_the_single_pass_percentile():
    one = [float(v) for v in range(36)]
    p, value = stats.pooled_tail([one, one, one])
    assert p == stats.tail_percentile(36) == 72
    assert value == stats.percentile(one * 3, 72)
    # the shortest pass sets the percentile
    assert stats.pooled_tail([one, one[:20]])[0] == 50
