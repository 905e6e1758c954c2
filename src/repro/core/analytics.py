"""Session analytics over middleware traces (the virtual laboratory).

The AIMES middleware's self-introspection makes every execution a data
set. This module turns raw traces and instrumented entities into the
quantities an experimenter plots:

* :func:`state_durations` — how long entities spent in each state;
* :func:`concurrency_series` — how many units were executing over time;
* :func:`allocation_metrics` — pilot core-seconds consumed vs used
  (the paper's "allocation consumption" concern: canceling pilots when
  tasks finish is only half the story — how full were they?);
* :func:`export_trace` — dump a telemetry hub's records as JSON for
  external tooling (the RADICAL-Analytics workflow).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..pilot import ComputePilot, ComputeUnit, PilotState, UnitState
from ..telemetry import trace_records_json


def state_durations(
    entities: Sequence,
    final_time: Optional[float] = None,
) -> Dict[str, float]:
    """Total seconds spent in each state, summed over entities.

    Works on anything with a ``history`` (pilots, units). Open-ended
    final states are closed at ``final_time`` when given, else ignored.
    """
    totals: Dict[str, float] = {}
    for entity in entities:
        entries = entity.history.as_list()
        for (state, t0), (_, t1) in zip(entries, entries[1:]):
            totals[state] = totals.get(state, 0.0) + (t1 - t0)
        if entries and final_time is not None:
            last_state, last_t = entries[-1]
            if final_time > last_t:
                totals[last_state] = (
                    totals.get(last_state, 0.0) + final_time - last_t
                )
    return totals


def concurrency_series(
    units: Sequence[ComputeUnit],
    state: str = UnitState.EXECUTING.value,
    end_states: Sequence[str] = (UnitState.STAGING_OUTPUT.value,),
) -> List[Tuple[float, int]]:
    """Step series of how many units were in ``state`` at once.

    Returns [(time, level), ...], one point per change, starting at the
    first entry. The series is what Figure-style concurrency plots
    consume.
    """
    events: List[Tuple[float, int]] = []
    for unit in units:
        t0 = unit.history.timestamp(state)
        if t0 is None:
            continue
        t1 = None
        for s in end_states:
            cand = unit.history.timestamp(s)
            if cand is not None and cand >= t0:
                t1 = cand if t1 is None else min(t1, cand)
        if t1 is None:
            continue
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


def peak_concurrency(units: Sequence[ComputeUnit]) -> int:
    """Maximum number of simultaneously executing units."""
    series = concurrency_series(units)
    return max((level for _, level in series), default=0)


@dataclass(frozen=True)
class AllocationMetrics:
    """Pilot allocation consumed vs put to use."""

    consumed_core_s: float     # sum over pilots of cores x active duration
    used_core_s: float         # sum over units of cores x execution time
    efficiency: float          # used / consumed (0 when nothing consumed)


def allocation_metrics(
    pilots: Sequence[ComputePilot],
    units: Sequence[ComputeUnit],
    final_time: Optional[float] = None,
) -> AllocationMetrics:
    """How much allocation the pilots burned, and how much did work."""
    consumed = 0.0
    for pilot in pilots:
        t0 = pilot.activated_at
        if t0 is None:
            continue
        t1 = None
        for state in (PilotState.DONE, PilotState.CANCELED, PilotState.FAILED):
            cand = pilot.history.timestamp(state.value)
            if cand is not None:
                t1 = cand if t1 is None else min(t1, cand)
        if t1 is None:
            t1 = final_time if final_time is not None else t0
        consumed += pilot.cores * max(0.0, t1 - t0)

    used = 0.0
    for unit in units:
        t0 = unit.history.timestamp(UnitState.EXECUTING.value)
        t1 = unit.history.timestamp(UnitState.STAGING_OUTPUT.value)
        if t0 is not None and t1 is not None and t1 >= t0:
            used += unit.cores * (t1 - t0)

    efficiency = used / consumed if consumed > 0 else 0.0
    return AllocationMetrics(
        consumed_core_s=consumed, used_core_s=used, efficiency=efficiency
    )


#: ``export_trace(sim.telemetry, category=None)``: the hub's records as
#: flat JSON rows (see :func:`repro.telemetry.exporters.trace_records_json`).
export_trace = trace_records_json
