"""Synthetic resource-pool generation for pool-size scaling studies.

The paper's future work extends the experiments "to up to 17 resources"
across several DCIs. This module generates arbitrary-size pools of
heterogeneous presets by sampling machine size, scheduling policy, load
level, job mix, and WAN characteristics from ranges spanning the five
hand-tuned presets, so scaling studies keep the qualitative diversity of
the original testbed.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .presets import ResourcePreset, _profile
from .schedulers import (
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FcfsScheduler,
)

_SCHEDULER_FACTORIES = (
    EasyBackfillScheduler,      # most common in production
    EasyBackfillScheduler,
    EasyBackfillScheduler,
    ConservativeBackfillScheduler,
    FcfsScheduler,              # rare, worst-case
)

_SCHEMAS = ("slurm", "slurm", "pbs", "pbs", "condor")


def synthetic_preset(rng: np.random.Generator, index: int) -> ResourcePreset:
    """Sample one plausible resource preset, named ``synth-<index>``."""
    cores_per_node = int(rng.choice([16, 24, 32]))
    # machine sizes log-uniform between ~2k and ~16k cores
    total_cores = float(rng.uniform(math.log(2048), math.log(16384)))
    nodes = max(64, int(round(math.exp(total_cores) / cores_per_node)))
    load = float(rng.uniform(0.95, 1.15))
    runtime_hours = float(rng.uniform(1.0, 3.0))
    sigma = float(rng.uniform(1.0, 1.3))
    bias = float(rng.uniform(0.9, 1.2))
    return ResourcePreset(
        name=f"synth-{index:02d}",
        nodes=nodes,
        cores_per_node=cores_per_node,
        scheduler_factory=_SCHEDULER_FACTORIES[
            int(rng.integers(len(_SCHEDULER_FACTORIES)))
        ],
        profile=_profile(
            load=load, runtime_hours=runtime_hours, sigma=sigma,
            big_job_bias=bias,
        ),
        submit_overhead=float(rng.uniform(1.0, 4.0)),
        backlog_hours=float(rng.uniform(0.5, 3.0)),
        access_schema=_SCHEMAS[int(rng.integers(len(_SCHEMAS)))],
        dispatch_interval=float(rng.uniform(30.0, 120.0)),
        wan_bandwidth_bytes_per_s=float(rng.uniform(20e6, 120e6)) / 8,
        wan_latency_s=float(rng.uniform(0.02, 0.08)),
        description="synthetically generated resource",
    )


def synthetic_pool(n: int, seed: int = 0) -> List[ResourcePreset]:
    """Generate ``n`` heterogeneous presets (deterministic in ``seed``)."""
    if n <= 0:
        raise ValueError("pool size must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    return [synthetic_preset(rng, i) for i in range(n)]
