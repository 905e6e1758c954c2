"""Energy accounting for execution strategies (paper §V).

The paper lists energy efficiency among the metrics future execution
strategies must weigh. We implement the standard node-power model used
in scheduling studies: an allocated core draws ``ACTIVE_WATTS`` while a
unit executes on it and ``IDLE_WATTS`` while it sits allocated-but-idle
inside a pilot (the pilot holds the cores either way — that is the cost
of the placeholder pattern). Energy is attributed per pilot from the
instrumented histories, so strategies can be compared on joules as
directly as on TTC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..pilot import ComputePilot, ComputeUnit, UnitState
from .analytics import _executing_attempts, _pilot_active_window

#: power draws representative of 2015-era HPC nodes (per core).
ACTIVE_WATTS = 12.0
IDLE_WATTS = 6.0


@dataclass(frozen=True)
class EnergyEstimate:
    """Joules consumed by one execution's pilots."""

    active_core_s: float      # core-seconds executing units
    idle_core_s: float        # core-seconds allocated but idle
    active_joules: float
    idle_joules: float

    @property
    def total_joules(self) -> float:
        return self.active_joules + self.idle_joules


def estimate_energy(
    pilots: Sequence[ComputePilot],
    units: Sequence[ComputeUnit],
    final_time: Optional[float] = None,
) -> EnergyEstimate:
    """Attribute core-seconds and joules to the execution's pilots."""

    # Per-pilot busy core-seconds from the units that ran on it: only
    # a unit's last attempt, if it staged out, ran on ``unit.pilot``.
    busy_core_s: Dict[str, float] = {}
    for unit in units:
        attempts = _executing_attempts(unit)
        if unit.pilot is None or not attempts:
            continue
        t0, t1, end = attempts[-1]
        if end == UnitState.STAGING_OUTPUT.value:
            busy_core_s[unit.pilot.uid] = (
                busy_core_s.get(unit.pilot.uid, 0.0) + unit.cores * (t1 - t0)
            )

    active_core_s = 0.0
    idle_core_s = 0.0
    for pilot in pilots:
        window = _pilot_active_window(pilot, final_time)
        if window is None:
            continue
        allocated = pilot.cores * (window[1] - window[0])
        busy = min(busy_core_s.get(pilot.uid, 0.0), allocated)
        active_core_s += busy
        idle_core_s += allocated - busy

    return EnergyEstimate(
        active_core_s=active_core_s,
        idle_core_s=idle_core_s,
        active_joules=active_core_s * ACTIVE_WATTS,
        idle_joules=idle_core_s * IDLE_WATTS,
    )


def report_energy(report) -> EnergyEstimate:
    """Convenience: energy straight from an ExecutionReport."""
    return estimate_energy(
        report.pilots, report.units, final_time=report.decomposition.t_end
    )
