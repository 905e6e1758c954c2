"""Deterministic fault injection for the AIMES middleware stack.

The paper's argument for late binding over multiple pilots is, at heart,
a robustness argument: queue waits are dominant *and variable*, and
resources misbehave. This package makes the misbehaviour explicit and
reproducible: a seeded :class:`FaultPlan` (scripted timelines and/or
probabilistic hazards) is enacted by a :class:`FaultInjector` that can

* kill pilots mid-run (through the cluster's native job failure path),
* fail SAGA submissions transiently or permanently,
* degrade or partition WAN links,
* take whole resources offline for a window,

recording every enacted fault to a fault log (an
:class:`~repro.telemetry.eventlog.EventLog`, see :func:`fault_log`)
whose digest is byte-for-byte reproducible from the plan's seed.
"""

from .injector import FaultInjectionError, FaultInjector, fault_log
from .plan import (
    ACTION_KINDS,
    DegradeLink,
    FaultPlan,
    FaultPlanError,
    KillPilot,
    Outage,
    PilotHazard,
    PRESET_NAMES,
    SubmitFailures,
    SubmitHazard,
    preset_plan,
)

__all__ = [
    "ACTION_KINDS",
    "DegradeLink",
    "FaultInjectionError",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "KillPilot",
    "Outage",
    "PRESET_NAMES",
    "PilotHazard",
    "SubmitFailures",
    "SubmitHazard",
    "fault_log",
    "preset_plan",
]
