"""Descriptions of pilots and compute units (the user-facing requests)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class ComputePilotDescription:
    """A request for one resource placeholder.

    ``runtime_min`` is the pilot walltime request in minutes (RADICAL-
    Pilot convention); ``access_schema`` picks the SAGA adaptor dialect.
    """

    resource: str
    cores: int
    runtime_min: float
    access_schema: str = "slurm"

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("pilot cores must be positive")
        if self.runtime_min <= 0:
            raise ValueError("pilot runtime must be positive")

    @property
    def runtime_s(self) -> float:
        return self.runtime_min * 60.0


@dataclass(frozen=True)
class ComputeUnitDescription:
    """A request to execute one task.

    ``duration_s`` is the substrate stand-in for the task executable's
    runtime (the skeleton task's sampled duration). ``input_staging`` are
    file names that must be present at the executing resource before the
    unit runs (staged from the origin if absent); ``output_staging`` are
    files the unit creates, staged back to the origin afterwards as
    ``(name, size_bytes)`` pairs.
    """

    name: str
    duration_s: float
    cores: int = 1
    input_staging: Tuple[str, ...] = ()
    output_staging: Tuple[Tuple[str, float], ...] = ()
    #: how many times the middleware may re-dispatch the unit after a
    #: pilot failure (the paper: tasks are automatically restarted).
    max_restarts: int = 3

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("unit cores must be positive")
        if self.duration_s < 0:
            raise ValueError("unit duration must be non-negative")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
