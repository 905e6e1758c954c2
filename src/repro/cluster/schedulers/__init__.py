"""Batch scheduling policies for simulated HPC resources."""

from .backfill import ConservativeBackfillScheduler, EasyBackfillScheduler
from .base import (
    AllocationProfile,
    BatchScheduler,
    RunningMirror,
    SchedulerView,
)
from .fcfs import FcfsScheduler

SCHEDULERS = {
    cls.name: cls
    for cls in (FcfsScheduler, EasyBackfillScheduler, ConservativeBackfillScheduler)
}


def make_scheduler(name: str) -> BatchScheduler:
    """Instantiate a scheduler policy by registry name."""
    try:
        return SCHEDULERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; known: {sorted(SCHEDULERS)}"
        ) from None


__all__ = [
    "AllocationProfile",
    "BatchScheduler",
    "ConservativeBackfillScheduler",
    "EasyBackfillScheduler",
    "FcfsScheduler",
    "RunningMirror",
    "SCHEDULERS",
    "SchedulerView",
    "make_scheduler",
]
