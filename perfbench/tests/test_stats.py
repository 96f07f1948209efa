import pytest

from perfbench.stats import tail


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 41))  # 40 jobs
    value, percentile, count = tail(values)
    assert (value, percentile, count) == (30, 75.0, 40)
    assert sum(v > value for v in values) == 10


def test_tail_is_order_independent():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
    assert tail(values) == tail(sorted(values))


def test_tail_omitted_when_it_would_be_the_median():
    assert tail(list(range(20))) is None  # p50 of 20
    assert tail(list(range(5))) is None
    value, percentile, _ = tail(list(range(21)))
    assert percentile == pytest.approx(100 * 11 / 21)
    assert value == 10
