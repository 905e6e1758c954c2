"""The pilot system (RADICAL-Pilot-like).

Resource placeholders (pilots) submitted through the SAGA access layer,
agents executing compute units on pilot cores, and managers binding
units to pilots under early-binding (direct) or late-binding (backfill,
round-robin) policies — all with fully instrumented state models.
"""

from ..lifecycle import (
    IllegalTransition,
    PILOT_FINAL,
    PilotState,
    StateHistory,
    UNIT_FINAL,
    UnitState,
    check_transition,
)
from .agent import Agent, AgentError
from .description import ComputePilotDescription, ComputeUnitDescription
from .entities import ComputePilot, ComputeUnit
from .pilot_manager import PilotManager, PilotManagerError
from .schedulers import (
    BackfillScheduler,
    DirectScheduler,
    LocalityScheduler,
    RoundRobinScheduler,
    UNIT_SCHEDULERS,
    UnitScheduler,
    make_unit_scheduler,
)
from .unit_manager import UnitManager, UnitManagerError

__all__ = [
    "Agent",
    "AgentError",
    "BackfillScheduler",
    "ComputePilot",
    "ComputePilotDescription",
    "ComputeUnit",
    "ComputeUnitDescription",
    "DirectScheduler",
    "IllegalTransition",
    "LocalityScheduler",
    "PILOT_FINAL",
    "PilotManager",
    "PilotManagerError",
    "PilotState",
    "RoundRobinScheduler",
    "StateHistory",
    "UNIT_FINAL",
    "UNIT_SCHEDULERS",
    "UnitManager",
    "UnitManagerError",
    "UnitScheduler",
    "UnitState",
    "check_transition",
    "make_unit_scheduler",
]
