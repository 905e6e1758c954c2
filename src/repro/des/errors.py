"""Exception types for the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulation kernel errors."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled in the past or re-scheduled."""


class ProcessError(SimulationError):
    """Raised when interacting with a process in an illegal state."""


class Interrupt(SimulationError):
    """Raised inside a process that was interrupted by another process.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.des.process.Process.interrupt`.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause
