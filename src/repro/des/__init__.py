"""Discrete-event simulation kernel.

This package is the substrate's foundation: a simulated clock that owns
a deterministic event heap, with one push (``Simulation._push``) and
one dispatch loop (``Simulation.run`` and ``Simulation.run_process``
share it), generator-based processes, a counted capacity pool, and
seeded RNG streams. What the middleware
layers above record about themselves goes to the kernel's telemetry hub
(``sim.telemetry``).
"""

from .errors import (
    Interrupt,
    ProcessError,
    SchedulingError,
    SimulationError,
)
from .hazard import hazard_process
from .kernel import EventHandle, Simulation
from .process import AllOf, Process, Signal, Timeout, Waitable
from .resources import Acquisition, CapacityResource
from .rng import RngStreams

__all__ = [
    "Acquisition",
    "AllOf",
    "CapacityResource",
    "EventHandle",
    "Interrupt",
    "Process",
    "ProcessError",
    "RngStreams",
    "SchedulingError",
    "Signal",
    "Simulation",
    "SimulationError",
    "Timeout",
    "Waitable",
    "hazard_process",
]
