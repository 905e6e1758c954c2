"""Interval algebra and performance metrics for execution analysis."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Merge overlapping/touching intervals into a disjoint sorted list."""
    items = sorted((lo, hi) for lo, hi in intervals if hi >= lo)
    out: List[Interval] = []
    for lo, hi in items:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def union_duration(intervals: Iterable[Interval]) -> float:
    """Total time covered by at least one interval."""
    return sum(hi - lo for lo, hi in merge_intervals(intervals))


def span(intervals: Iterable[Interval]) -> float:
    """Time from the earliest start to the latest end (0 if empty)."""
    items = [iv for iv in intervals]
    if not items:
        return 0.0
    return max(hi for _, hi in items) - min(lo for lo, _ in items)
