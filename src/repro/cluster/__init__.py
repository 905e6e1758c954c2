"""Simulated HPC resources: batch jobs, core accounting, schedulers, workloads.

This package is the stand-in for the paper's XSEDE/NERSC machines: each
:class:`Cluster` is a space-shared resource with a free-core count, a
batch queue, a scheduling policy (FCFS / EASY backfill / conservative
backfill), and a stochastic background workload that produces
realistic, heavy-tailed queue-wait dynamics for the pilot jobs
submitted on top.
"""

from .job import BatchJob, FINAL_STATES, IllegalTransition, JobState
from .machine import AllocationError, Cluster, SubmissionError
from .presets import (
    DEFAULT_POOL,
    PRESETS,
    ResourcePreset,
    SimulatedResource,
    build_pool,
    build_resource,
)
from .swf import SwfError, SwfJob, SwfReplay, export_swf, parse_swf
from .synthetic import synthetic_pool, synthetic_preset
from .schedulers import (
    BatchScheduler,
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FcfsScheduler,
    SCHEDULERS,
    SchedulerView,
    make_scheduler,
)
from .workload import BackgroundWorkload, WorkloadProfile
from .xdmod import (
    DURATION_BUCKETS,
    SIZE_BUCKETS,
    WorkloadCharacterizer,
    WorkloadReport,
)

__all__ = [
    "AllocationError",
    "BackgroundWorkload",
    "BatchJob",
    "BatchScheduler",
    "Cluster",
    "ConservativeBackfillScheduler",
    "DURATION_BUCKETS",
    "DEFAULT_POOL",
    "EasyBackfillScheduler",
    "FINAL_STATES",
    "FcfsScheduler",
    "IllegalTransition",
    "JobState",
    "PRESETS",
    "ResourcePreset",
    "SCHEDULERS",
    "SIZE_BUCKETS",
    "SchedulerView",
    "SimulatedResource",
    "SubmissionError",
    "SwfError",
    "SwfJob",
    "SwfReplay",
    "WorkloadCharacterizer",
    "WorkloadProfile",
    "WorkloadReport",
    "build_pool",
    "build_resource",
    "export_swf",
    "make_scheduler",
    "parse_swf",
    "synthetic_pool",
    "synthetic_preset",
]
