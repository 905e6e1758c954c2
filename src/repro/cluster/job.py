"""Batch-job model for the simulated HPC resources.

A :class:`BatchJob` is what a resource's batch scheduler sees: a request
for some cores for at most ``walltime`` seconds. The *actual* runtime is
hidden from the scheduler (as on real systems) and only used by the
simulator to decide when the job finishes. Jobs whose runtime exceeds
their walltime are killed at the walltime limit, exactly as production
resource managers do.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..lifecycle import IllegalTransition

_job_ids = itertools.count(1)


class JobState(str, enum.Enum):
    """Lifecycle of a batch job on a simulated resource."""

    NEW = "NEW"                # created, not yet submitted
    PENDING = "PENDING"        # queued at the resource
    RUNNING = "RUNNING"        # allocated and executing
    COMPLETED = "COMPLETED"    # finished within its walltime
    TIMEOUT = "TIMEOUT"        # killed at the walltime limit
    CANCELLED = "CANCELLED"    # removed by the user
    FAILED = "FAILED"          # aborted by the resource

FINAL_STATES = frozenset(
    {JobState.COMPLETED, JobState.TIMEOUT, JobState.CANCELLED, JobState.FAILED}
)

#: Legal state transitions; anything else is a simulator bug.
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.NEW: frozenset(
        {JobState.PENDING, JobState.CANCELLED, JobState.FAILED}
    ),
    JobState.PENDING: frozenset(
        {JobState.RUNNING, JobState.CANCELLED, JobState.FAILED}
    ),
    JobState.RUNNING: frozenset(
        {JobState.COMPLETED, JobState.TIMEOUT, JobState.CANCELLED, JobState.FAILED}
    ),
}


@dataclass(eq=False)
class BatchJob:
    """A job as submitted to a simulated batch system.

    Parameters
    ----------
    cores:
        Number of cores requested (may span nodes).
    runtime:
        Actual execution time in seconds, unknown to the scheduler.
    walltime:
        Requested limit in seconds; the scheduler plans with this and the
        resource kills the job when it is exceeded.
    user:
        Account name, carried through SWF import and export.
    kind:
        Free-form tag (``"background"``, ``"pilot"``, ...) used by traces
        and analyses.
    """

    cores: int
    runtime: float
    walltime: float
    user: str = "user"
    name: str = ""
    kind: str = "background"

    uid: int = field(default_factory=_job_ids.__next__)
    state: JobState = JobState.NEW
    submit_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"job cores must be positive, got {self.cores}")
        if self.runtime < 0:
            raise ValueError(f"job runtime must be >= 0, got {self.runtime}")
        if self.walltime <= 0:
            raise ValueError(f"job walltime must be positive, got {self.walltime}")
        if not self.name:
            self.name = f"job.{self.uid:06d}"
        self._callbacks: list[Callable[["BatchJob", JobState, JobState], None]] = []

    # -- observers -----------------------------------------------------------

    def add_callback(
        self, fn: Callable[["BatchJob", JobState, JobState], None]
    ) -> None:
        """Register ``fn(job, old_state, new_state)`` on every transition."""
        self._callbacks.append(fn)

    def advance(self, new_state: JobState) -> None:
        """Transition to ``new_state``, enforcing the job state model."""
        allowed = _TRANSITIONS.get(self.state, frozenset())
        if new_state not in allowed:
            raise IllegalTransition(
                f"{self.name}: illegal transition {self.state.value} -> "
                f"{new_state.value}"
            )
        old, self.state = self.state, new_state
        if self._callbacks:
            for fn in list(self._callbacks):
                fn(self, old, new_state)

    # -- convenience ----------------------------------------------------------

    @property
    def is_final(self) -> bool:
        return self.state in FINAL_STATES

    @property
    def wait_time(self) -> Optional[float]:
        """Queue wait in seconds, or None if the job never started."""
        if self.submit_time is None or self.start_time is None:
            return None
        return self.start_time - self.submit_time

    # Equality is identity (``eq=False``; ``uid`` is unique per job). The
    # hash stays the uid, so set iteration order never depends on object
    # addresses.
    def __hash__(self) -> int:
        return self.uid
