"""Discrete-event simulation kernel.

This package is the substrate's foundation: a deterministic event queue,
a simulated clock with one dispatch loop (``Simulation.run`` and
``Simulation.run_process`` share it), generator-based processes, a
counted capacity pool, and seeded RNG streams. What the middleware
layers above record about themselves goes to the kernel's telemetry hub
(``sim.telemetry``).
"""

from .errors import (
    CancelledError,
    Interrupt,
    ProcessError,
    SchedulingError,
    SimulationError,
)
from .events import EventHandle, EventQueue
from .hazard import hazard_process
from .kernel import Simulation
from .process import AllOf, Process, Signal, Timeout, Waitable
from .resources import Acquisition, CapacityResource
from .rng import RngStreams

__all__ = [
    "Acquisition",
    "AllOf",
    "CancelledError",
    "CapacityResource",
    "EventHandle",
    "EventQueue",
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
