"""Uniform job descriptions (the SAGA job description attributes)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class JobDescription:
    """What a caller asks for, independent of the target middleware.

    Attribute names follow the SAGA job description vocabulary
    (``total_cpu_count``, ``wall_time_limit`` in *minutes*); adaptors
    translate to each dialect's native units, as a pilot job of the
    ``aimes`` account.

    ``simulated_runtime_s`` is the substrate hook: the actual execution
    time of the placeholder job in the simulation (on a real system this
    would be determined by the payload itself).
    """

    total_cpu_count: int = 1
    wall_time_limit: float = 60.0        # minutes, per SAGA convention
    name: str = ""

    #: substrate-only: how long the job actually runs, in seconds.
    simulated_runtime_s: float = 0.0

    def validate(self) -> None:
        """Raise ValueError on nonsensical requests (adaptors call this)."""
        if self.total_cpu_count <= 0:
            raise ValueError("total_cpu_count must be positive")
        if self.wall_time_limit <= 0:
            raise ValueError("wall_time_limit must be positive")
        if self.simulated_runtime_s < 0:
            raise ValueError("simulated_runtime_s must be non-negative")
