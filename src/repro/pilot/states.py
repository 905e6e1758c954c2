"""State models for pilots and compute units, with full instrumentation.

RADICAL-Pilot's distinguishing capability (per the paper) is that every
state transition of every component is timestamped and recorded. Both
entities here keep an ordered ``history`` of (state, time) pairs and
write each transition to the simulation trace; each execution's causal
graph (:func:`repro.telemetry.causality.build_graph`) is built from these
records, and both the TTC decomposition and the attribution read it.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple


class PilotState(str, enum.Enum):
    """Lifecycle of a compute pilot."""

    NEW = "NEW"                       # described, not submitted
    LAUNCHING = "LAUNCHING"           # handed to the SAGA layer
    PENDING_ACTIVE = "PENDING_ACTIVE" # queued at the resource
    ACTIVE = "ACTIVE"                 # agent running, accepts units
    DONE = "DONE"                     # ended within walltime after cancel/drain
    CANCELED = "CANCELED"             # canceled by the user/middleware
    FAILED = "FAILED"                 # died (walltime kill or resource error)


PILOT_FINAL = frozenset({PilotState.DONE, PilotState.CANCELED, PilotState.FAILED})


class UnitState(str, enum.Enum):
    """Lifecycle of a compute unit (one application task)."""

    NEW = "NEW"                         # described
    UNSCHEDULED = "UNSCHEDULED"         # waiting for binding (late) / pilot (early)
    SCHEDULING = "SCHEDULING"           # bound to a pilot, not yet staged
    STAGING_INPUT = "STAGING_INPUT"     # inputs moving to the pilot's resource
    PENDING_EXECUTION = "PENDING_EXECUTION"  # waiting for free cores on the agent
    EXECUTING = "EXECUTING"             # running on pilot cores
    STAGING_OUTPUT = "STAGING_OUTPUT"   # outputs moving back to the origin
    DONE = "DONE"
    CANCELED = "CANCELED"
    FAILED = "FAILED"                   # pilot died / staging failed; may restart


UNIT_FINAL = frozenset({UnitState.DONE, UnitState.CANCELED, UnitState.FAILED})

#: Transitions allowed by the unit state model. FAILED is reachable from any
#: non-final state (the pilot can die under the unit at any point), and a
#: FAILED unit may be re-dispatched (FAILED -> UNSCHEDULED) by the restart
#: machinery.
_UNIT_TRANSITIONS = {
    UnitState.NEW: {UnitState.UNSCHEDULED, UnitState.CANCELED},
    UnitState.UNSCHEDULED: {UnitState.SCHEDULING, UnitState.CANCELED},
    UnitState.SCHEDULING: {UnitState.STAGING_INPUT, UnitState.CANCELED},
    UnitState.STAGING_INPUT: {UnitState.PENDING_EXECUTION, UnitState.CANCELED},
    UnitState.PENDING_EXECUTION: {UnitState.EXECUTING, UnitState.CANCELED},
    UnitState.EXECUTING: {UnitState.STAGING_OUTPUT, UnitState.CANCELED},
    UnitState.STAGING_OUTPUT: {UnitState.DONE, UnitState.CANCELED},
    UnitState.FAILED: {UnitState.UNSCHEDULED},
}


class IllegalUnitTransition(Exception):
    """Raised when the unit state model is violated (a middleware bug)."""


def check_unit_transition(old: UnitState, new: UnitState) -> None:
    """Validate a unit transition, allowing FAILED from any non-final state."""
    if new is UnitState.FAILED:
        if old in UNIT_FINAL:
            raise IllegalUnitTransition(f"{old.value} -> FAILED")
        return
    allowed = _UNIT_TRANSITIONS.get(old, set())
    if new not in allowed:
        raise IllegalUnitTransition(f"{old.value} -> {new.value}")


class StateHistory:
    """Ordered record of (state, simulated time) pairs."""

    def __init__(self) -> None:
        self._entries: List[Tuple[str, float]] = []

    def append(self, state: str, time: float) -> None:
        self._entries.append((state, time))

    def timestamp(self, state: str) -> Optional[float]:
        """Time of the *first* entry into ``state``, or None."""
        for s, t in self._entries:
            if s == state:
                return t
        return None

    def last_timestamp(self, state: str) -> Optional[float]:
        """Time of the *last* entry into ``state``, or None."""
        out = None
        for s, t in self._entries:
            if s == state:
                out = t
        return out

    def as_list(self) -> List[Tuple[str, float]]:
        return list(self._entries)

    def duration_between(self, start_state: str, end_state: str) -> Optional[float]:
        """Elapsed time from first ``start_state`` to first ``end_state``."""
        t0 = self.timestamp(start_state)
        t1 = self.timestamp(end_state)
        if t0 is None or t1 is None:
            return None
        return t1 - t0
