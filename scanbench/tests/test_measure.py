import pytest

from scanbench.measure import tail


def test_tail_is_the_eleventh_largest_sample():
    got = tail(list(range(1, 101)))
    assert got == {"pct": 90.0, "value": 90, "n": 100, "above": 10}


def test_tail_percentile_follows_the_sample_count():
    got = tail([float(v) for v in range(137, 0, -1)])  # order of arrival does not matter
    assert got["value"] == 127.0
    assert got["above"] == 10
    assert got["pct"] == pytest.approx(100.0 * 127 / 137)


def test_tail_at_twenty_samples_is_the_median_rank():
    got = tail(list(range(20)))
    assert (got["pct"], got["value"], got["above"]) == (50.0, 9, 10)


def test_short_run_falls_back_to_the_median_and_says_so():
    got = tail([3.0, 1.0, 2.0, 5.0, 4.0, 6.0])
    assert (got["pct"], got["value"], got["above"]) == (50.0, 3.5, 3)
    assert tail([7.0])["value"] == 7.0
