"""Metric arithmetic: percentiles, self time, failure fraction."""

import pytest

from trialbench import stats


def test_percentile_is_nearest_rank_with_its_sample_count():
    values = [float(v) for v in range(12, 0, -1)]
    p50 = stats.percentile(values, 50)
    assert (p50.value, p50.samples, p50.pct) == (6.0, 12, 50)
    assert stats.percentile(values, 100).value == 12.0
    assert stats.percentile([3.0], 50).value == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("size, pct", [(12, 50), (99, 50), (100, 90),
                                       (999, 90), (1000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond_it(size, pct):
    tail = stats.tail_percentile([float(v) for v in range(size)])
    assert tail.pct == pct
    assert tail.samples == size
    assert sum(1 for v in range(size) if v > tail.value) >= min(10, size // 2)


def test_self_time_subtracts_the_union_of_covered_children():
    spans = [
        {"id": "p", "parent": None, "start": 0.0, "end": 10.0},
        # overlapping children count once; the part outside the parent
        # does not count at all
        {"id": "a", "parent": "p", "start": 1.0, "end": 3.0},
        {"id": "b", "parent": "p", "start": 2.0, "end": 5.0},
        {"id": "c", "parent": "p", "start": 8.0, "end": 12.0},
        # a grandchild is covered by its parent, not by the grandparent
        {"id": "g", "parent": "a", "start": 1.5, "end": 2.5},
    ]
    selfs = stats.self_times(spans)
    assert selfs["p"] == pytest.approx(10 - 4 - 2)
    assert selfs["a"] == pytest.approx(1.0)
    assert selfs["g"] == pytest.approx(1.0)
    assert selfs["c"] == pytest.approx(4.0)


def test_failed_frac_counts_mismatches_as_failures():
    assert stats.failed_frac(10, 0, 0) == 0.0
    assert stats.failed_frac(10, 1, 2) == pytest.approx(0.3)
    assert stats.failed_frac(4, 3, 3) == 1.0
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0, 0)

