"""Tests for interval algebra and metrics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    merge_intervals,
    span,
    union_duration,
)


def test_merge_disjoint():
    assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]


def test_merge_overlapping_and_touching():
    assert merge_intervals([(0, 2), (1, 3)]) == [(0, 3)]
    assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]


def test_merge_unsorted_input():
    assert merge_intervals([(5, 6), (0, 2), (1, 3)]) == [(0, 3), (5, 6)]


def test_merge_drops_inverted():
    assert merge_intervals([(3, 1)]) == []


def test_union_duration():
    assert union_duration([(0, 2), (1, 3), (10, 11)]) == 4.0
    assert union_duration([]) == 0.0


def test_span():
    assert span([(2, 4), (10, 12)]) == 10.0
    assert span([]) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)).map(
            lambda p: (min(p), max(p))
        ),
        max_size=20,
    )
)
def test_union_properties(intervals):
    """Union duration <= sum of durations; merged intervals are disjoint."""
    total = sum(hi - lo for lo, hi in intervals)
    union = union_duration(intervals)
    assert union <= total + 1e-9
    merged = merge_intervals(intervals)
    for (a, b), (c, d) in zip(merged, merged[1:]):
        assert b < c  # strictly disjoint and ordered
    assert union <= span(intervals) + 1e-9 or not intervals
