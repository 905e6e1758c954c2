"""The P* lifecycle: the pilot and unit state machines, declared once.

P* models a pilot system as two state machines: the pilot (a resource
placeholder going through submission, queueing and activation) and the
compute unit (a task going through binding, staging and execution).
RADICAL-Pilot instruments every transition of both, and the paper's TTC
explanation (Tw, Tx, Ts, Trp) is read off those recorded histories.

This module holds both machines as tables. A row names the states a
state may move to; a unit row also names the causal-graph activity that
the interval spent in the state becomes, and the TTC component it feeds
(see :mod:`repro.telemetry.causality`). Every ``advance`` of a pilot or
a unit is checked against its table by :func:`check_transition`; only a
final pilot's late echo from its SAGA job is dropped before the check.

It imports nothing but the standard library, so every layer can read it
— :mod:`repro.telemetry` included, which the DES kernel depends on.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple, Union


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

State = Union[PilotState, UnitState]


class Row(NamedTuple):
    """One state of a machine.

    ``successors`` are the states it may move to. For a unit state,
    ``activity`` is the causal-graph activity kind of the interval spent
    in it and ``component`` the TTC component that interval feeds; both
    are None for states that are not timed (NEW and the final ones).
    """

    successors: FrozenSet[State]
    activity: Optional[str] = None
    component: Optional[str] = None


def _row(*successors: State, activity: Optional[str] = None,
         component: Optional[str] = None) -> Row:
    return Row(frozenset(successors), activity, component)


# Each state's value is its name, and a str enum hashes by its name, so
# a table keyed by states also answers a lookup by the plain string a
# StateHistory records (``UNIT_TABLE["EXECUTING"]``).

_P = PilotState

#: The pilot machine. A pilot can be canceled in every non-final state,
#: and it can fail once submitted: at submission, in the queue, or while
#: running. DONE is reachable from PENDING_ACTIVE because the placeholder
#: job can end during the bootstrap window (``PilotManager._activate``
#: runs ``bootstrap_s`` after the job starts).
PILOT_TABLE: Dict[PilotState, Row] = {
    _P.NEW: _row(_P.LAUNCHING, _P.CANCELED),
    _P.LAUNCHING: _row(_P.PENDING_ACTIVE, _P.CANCELED, _P.FAILED),
    _P.PENDING_ACTIVE: _row(_P.ACTIVE, _P.DONE, _P.CANCELED, _P.FAILED),
    _P.ACTIVE: _row(_P.DONE, _P.CANCELED, _P.FAILED),
    _P.DONE: _row(),
    _P.CANCELED: _row(),
    _P.FAILED: _row(),
}

_U = UnitState

#: The unit machine. CANCELED and FAILED are reachable from every
#: non-final state (the pilot can die under the unit at any point), and
#: a FAILED unit may be re-dispatched (FAILED -> UNSCHEDULED) by the
#: restart machinery; its FAILED interval is then a recovery wait.
UNIT_TABLE: Dict[UnitState, Row] = {
    _U.NEW: _row(_U.UNSCHEDULED, _U.CANCELED, _U.FAILED),
    _U.UNSCHEDULED: _row(
        _U.SCHEDULING, _U.CANCELED, _U.FAILED,
        activity="unscheduled", component="trp",
    ),
    _U.SCHEDULING: _row(
        _U.STAGING_INPUT, _U.CANCELED, _U.FAILED,
        activity="scheduling", component="trp",
    ),
    _U.STAGING_INPUT: _row(
        _U.PENDING_EXECUTION, _U.CANCELED, _U.FAILED,
        activity="staging-in", component="ts",
    ),
    _U.PENDING_EXECUTION: _row(
        _U.EXECUTING, _U.CANCELED, _U.FAILED,
        activity="pending", component="trp",
    ),
    _U.EXECUTING: _row(
        _U.STAGING_OUTPUT, _U.CANCELED, _U.FAILED,
        activity="executing", component="tx",
    ),
    _U.STAGING_OUTPUT: _row(
        _U.DONE, _U.CANCELED, _U.FAILED,
        activity="staging-out", component="ts",
    ),
    _U.DONE: _row(),
    _U.CANCELED: _row(),
    _U.FAILED: _row(
        _U.UNSCHEDULED, activity="recovery-wait", component="trp",
    ),
}

_TABLES = {PilotState: PILOT_TABLE, UnitState: UNIT_TABLE}


class IllegalTransition(Exception):
    """Raised on a transition its state machine does not allow (a bug in the
    middleware or simulator) — by pilots and units here, and by batch jobs."""


def check_transition(old: State, new: State) -> None:
    """Raise :class:`IllegalTransition` unless ``old -> new`` is in the table."""
    if new not in _TABLES[type(old)][old].successors:
        raise IllegalTransition(
            f"{type(old).__name__} {old.value} -> {new.value}"
        )


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

    def as_list(self) -> List[Tuple[str, float]]:
        return list(self._entries)
