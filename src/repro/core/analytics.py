"""Session analytics over middleware traces (the virtual laboratory).

The AIMES middleware's self-introspection makes every execution a data
set. This module turns raw traces and instrumented entities into the
quantities an experimenter plots:

* :func:`concurrency_series` — how many units were executing over time;
* :func:`allocation_metrics` — pilot core-seconds consumed vs used
  (the paper's "allocation consumption" concern: canceling pilots when
  tasks finish is only half the story — how full were they?).

Execution time is read per attempt, by the walk that gives the causal
graph its ``executing`` activities, so a restarted unit's requeue gap
between two attempts is never execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..pilot import ComputePilot, ComputeUnit
from ..telemetry.causality import _pilot_end_time, _unit_activities
from .metrics import Interval


def _executing_attempts(unit) -> List[Tuple[float, float, str]]:
    """``(t0, t1, end)`` of each closed EXECUTING attempt of ``unit``."""
    return [
        (t0, t1, end)
        for kind, _, t0, t1, end in _unit_activities(unit, math.inf)
        if kind == "executing" and end is not None
    ]


def concurrency_series(
    units: Sequence[ComputeUnit],
) -> List[Tuple[float, int]]:
    """Step series of how many units were executing at once.

    Returns [(time, level), ...], one point per change, starting at the
    first entry. Every attempt counts, lost ones included. The series
    is what Figure-style concurrency plots consume.
    """
    events: List[Tuple[float, int]] = []
    for unit in units:
        for t0, t1, _ in _executing_attempts(unit):
            events.append((t0, +1))
            events.append((t1, -1))
    events.sort()
    series: List[Tuple[float, int]] = []
    level = 0
    for t, delta in events:
        level += delta
        if series and series[-1][0] == t:
            series[-1] = (t, level)
        else:
            series.append((t, level))
    return series


@dataclass(frozen=True)
class AllocationMetrics:
    """Pilot allocation consumed vs put to use."""

    consumed_core_s: float     # sum over pilots of cores x active duration
    used_core_s: float         # sum over units of cores x execution time
    efficiency: float          # used / consumed (0 when nothing consumed)


def _pilot_active_window(
    pilot, final_time: Optional[float] = None
) -> Optional[Interval]:
    """``(activated, ended)``, or None; a live pilot ends at final_time."""
    t0 = pilot.activated_at
    if t0 is None:
        return None
    t1 = _pilot_end_time(pilot)
    if t1 is None:
        t1 = final_time if final_time is not None else t0
    return (t0, max(t0, t1))


def allocation_metrics(
    pilots: Sequence[ComputePilot],
    units: Sequence[ComputeUnit],
    final_time: Optional[float] = None,
) -> AllocationMetrics:
    """How much allocation the pilots burned, and how much did work."""
    consumed = 0.0
    for pilot in pilots:
        window = _pilot_active_window(pilot, final_time)
        if window is not None:
            consumed += pilot.cores * (window[1] - window[0])

    used = 0.0
    for unit in units:
        for t0, t1, _ in _executing_attempts(unit):
            used += unit.cores * (t1 - t0)

    efficiency = used / consumed if consumed > 0 else 0.0
    return AllocationMetrics(
        consumed_core_s=consumed, used_core_s=used, efficiency=efficiency
    )
