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
from typing import Callable, Optional

from ..lifecycle import IllegalTransition

_next_uid = itertools.count(1).__next__


class JobState(str, enum.Enum):
    """Lifecycle of a batch job on a simulated resource."""

    NEW = "NEW"                # created, not yet submitted
    PENDING = "PENDING"        # queued at the resource
    RUNNING = "RUNNING"        # allocated and executing
    COMPLETED = "COMPLETED"    # finished within its walltime
    TIMEOUT = "TIMEOUT"        # killed at the walltime limit
    CANCELLED = "CANCELLED"    # removed by the user
    FAILED = "FAILED"          # aborted by the resource

#: a module global, cheaper to read than the enum member (see machine.py).
_NEW = JobState.NEW

FINAL_STATES = frozenset(
    {JobState.COMPLETED, JobState.TIMEOUT, JobState.CANCELLED, JobState.FAILED}
)

#: Legal state transitions; anything else is a simulator bug. A final
#: state has no successors.
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
    **{state: frozenset() for state in FINAL_STATES},
}


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
    name:
        Display name; ``job.<uid>`` (six digits) when not given.
    kind:
        Free-form tag (``"background"``, ``"pilot"``, ...) used by traces
        and analyses.

    A slotted class with a plain ``__init__``: a campaign cell builds
    about a thousand background jobs, and the unnamed ones (all of
    them) format their name only when it is read.
    """

    __slots__ = (
        "cores", "runtime", "walltime", "user", "_name", "kind", "uid",
        "state", "submit_time", "start_time", "end_time", "_callbacks",
    )

    def __init__(
        self,
        cores: int,
        runtime: float,
        walltime: float,
        user: str = "user",
        name: str = "",
        kind: str = "background",
    ) -> None:
        if cores <= 0:
            raise ValueError(f"job cores must be positive, got {cores}")
        if runtime < 0:
            raise ValueError(f"job runtime must be >= 0, got {runtime}")
        if walltime <= 0:
            raise ValueError(f"job walltime must be positive, got {walltime}")
        self.cores = cores
        self.runtime = runtime
        self.walltime = walltime
        self.user = user
        self._name = name
        self.kind = kind
        self.uid: int = _next_uid()
        self.state = _NEW
        self.submit_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self._callbacks: list[
            Callable[["BatchJob", JobState, JobState], None]
        ] = []

    @property
    def name(self) -> str:
        return self._name or f"job.{self.uid:06d}"

    # -- observers -----------------------------------------------------------

    def add_callback(
        self, fn: Callable[["BatchJob", JobState, JobState], None]
    ) -> None:
        """Register ``fn(job, old_state, new_state)`` on every transition."""
        self._callbacks.append(fn)

    def advance(self, new_state: JobState) -> None:
        """Transition to ``new_state``, enforcing the job state model."""
        old = self.state
        if new_state not in _TRANSITIONS[old]:
            raise IllegalTransition(
                f"{self.name}: illegal transition {old.value} -> "
                f"{new_state.value}"
            )
        self.state = new_state
        if self._callbacks:
            for fn in list(self._callbacks):
                fn(self, old, new_state)

    # -- convenience ----------------------------------------------------------

    @property
    def wait_time(self) -> Optional[float]:
        """Queue wait in seconds, or None if the job never started."""
        if self.submit_time is None or self.start_time is None:
            return None
        return self.start_time - self.submit_time
