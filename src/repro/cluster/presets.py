"""Presets for the five resources used in the paper's experiments.

The paper ran on four XSEDE resources and one NERSC resource. We model
five *stand-ins* with the same qualitative diversity: different sizes,
per-node core counts, scheduling policies, load levels, and job mixes.
Names are suffixed ``-sim`` to make clear these are simulated analogues,
not measurements of the production machines. Capacities are scaled down
(~1/10) from the 2015-era systems so campaigns run quickly; what matters
for the paper's phenomenology is the *ratio* of pilot size to machine
size and the load level, both of which are preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..des import Simulation
from .machine import Cluster
from .schedulers import (
    BatchScheduler,
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FcfsScheduler,
)
from .workload import BackgroundWorkload, WorkloadProfile


@dataclass(frozen=True)
class ResourcePreset:
    """Everything needed to instantiate one simulated resource."""

    name: str
    nodes: int
    cores_per_node: int
    scheduler_factory: Callable[[], BatchScheduler]
    profile: WorkloadProfile
    submit_overhead: float = 2.0
    #: initial queued backlog in core-hours of capacity (see prime()).
    backlog_hours: float = 1.0
    #: SAGA adaptor dialect used to reach this resource.
    access_schema: str = "slurm"
    #: batch scheduler cycle period in seconds.
    dispatch_interval: float = 60.0
    #: WAN characteristics between the user's origin host and this site.
    wan_bandwidth_bytes_per_s: float = 50e6 / 8
    wan_latency_s: float = 0.04
    description: str = ""


def _profile(
    load: float,
    runtime_hours: float,
    sigma: float,
    big_job_bias: float,
) -> WorkloadProfile:
    """Build a workload profile over the profile's core choices and
    diurnal swing; ``big_job_bias`` skews mass to large jobs."""
    base = [0.28, 0.20, 0.16, 0.12, 0.09, 0.07, 0.045, 0.02, 0.015]
    # Tilt the mix toward large jobs by a geometric factor, then renormalize.
    weights = [w * (big_job_bias ** i) for i, w in enumerate(base)]
    total = sum(weights)
    weights = tuple(w / total for w in weights)
    return WorkloadProfile(
        offered_load=load,
        core_weights=weights,
        runtime_log_mean=math.log(runtime_hours * 3600.0),
        runtime_log_sigma=sigma,
    )


#: The five stand-ins. Diversity mirrors the paper's pool: big/fast-turnaround
#: machines, mid-size busy machines, and a small overloaded one.
PRESETS: Dict[str, ResourcePreset] = {
    p.name: p
    for p in (
        ResourcePreset(
            name="stampede-sim",
            nodes=640,
            cores_per_node=16,
            scheduler_factory=EasyBackfillScheduler,
            profile=_profile(load=1.03, runtime_hours=1.5, sigma=1.1, big_job_bias=1.0),
            submit_overhead=2.0,
            backlog_hours=1.0,
            access_schema="slurm",
            dispatch_interval=30.0,
            wan_bandwidth_bytes_per_s=100e6 / 8,
            wan_latency_s=0.03,
            description="large XSEDE-class machine, EASY backfill, moderate load",
        ),
        ResourcePreset(
            name="comet-sim",
            nodes=320,
            cores_per_node=24,
            scheduler_factory=EasyBackfillScheduler,
            profile=_profile(load=1.10, runtime_hours=2.0, sigma=1.2, big_job_bias=1.1),
            submit_overhead=2.0,
            backlog_hours=2.0,
            access_schema="slurm",
            dispatch_interval=60.0,
            wan_bandwidth_bytes_per_s=50e6 / 8,
            wan_latency_s=0.04,
            description="mid-size busy machine, EASY backfill, high load",
        ),
        ResourcePreset(
            name="gordon-sim",
            nodes=256,
            cores_per_node=16,
            scheduler_factory=EasyBackfillScheduler,
            profile=_profile(load=1.00, runtime_hours=1.0, sigma=1.0, big_job_bias=0.9),
            submit_overhead=2.0,
            backlog_hours=0.75,
            access_schema="pbs",
            dispatch_interval=45.0,
            wan_bandwidth_bytes_per_s=40e6 / 8,
            wan_latency_s=0.05,
            description="mid-size machine with short jobs, EASY backfill",
        ),
        ResourcePreset(
            name="blacklight-sim",
            nodes=192,
            cores_per_node=16,
            scheduler_factory=FcfsScheduler,
            profile=_profile(load=1.15, runtime_hours=3.0, sigma=1.3, big_job_bias=1.2),
            submit_overhead=3.0,
            backlog_hours=3.0,
            access_schema="condor",
            dispatch_interval=120.0,
            wan_bandwidth_bytes_per_s=30e6 / 8,
            wan_latency_s=0.07,
            description="small machine, long jobs, FCFS (worst-case waits)",
        ),
        ResourcePreset(
            name="hopper-sim",
            nodes=512,
            cores_per_node=24,
            scheduler_factory=ConservativeBackfillScheduler,
            profile=_profile(load=1.05, runtime_hours=2.5, sigma=1.2, big_job_bias=1.15),
            submit_overhead=2.5,
            backlog_hours=1.5,
            access_schema="pbs",
            dispatch_interval=90.0,
            wan_bandwidth_bytes_per_s=70e6 / 8,
            wan_latency_s=0.06,
            description="NERSC-class machine, conservative backfill, DOE-style mix",
        ),
    )
}

DEFAULT_POOL = tuple(PRESETS)


@dataclass
class SimulatedResource:
    """A live resource: cluster + its background workload."""

    preset: ResourcePreset
    cluster: Cluster
    workload: BackgroundWorkload


def build_resource(
    sim: Simulation,
    preset: ResourcePreset,
) -> SimulatedResource:
    """Instantiate one preset on a simulation kernel.

    The machine is primed to a realistic busy state (full cores plus the
    preset's queued backlog) and its background workload started.
    """
    cluster = Cluster(
        sim,
        name=preset.name,
        nodes=preset.nodes,
        cores_per_node=preset.cores_per_node,
        scheduler=preset.scheduler_factory(),
        submit_overhead=preset.submit_overhead,
        dispatch_interval=preset.dispatch_interval,
    )
    workload = BackgroundWorkload(sim, cluster, preset.profile)
    workload.prime(backlog_hours=preset.backlog_hours)
    workload.start()
    return SimulatedResource(preset=preset, cluster=cluster, workload=workload)


def build_pool(
    sim: Simulation,
    names: Optional[tuple[str, ...]] = None,
) -> Dict[str, SimulatedResource]:
    """Instantiate several presets (default: all five) on one kernel."""
    out: Dict[str, SimulatedResource] = {}
    for name in names or DEFAULT_POOL:
        try:
            preset = PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown resource preset {name!r}; known: {sorted(PRESETS)}"
            ) from None
        out[name] = build_resource(sim, preset)
    return out
