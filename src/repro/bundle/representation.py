"""Uniform resource representation across compute / network / storage.

The Bundle abstraction characterizes heterogeneous resources "with a
large degree of uniformity": each category exposes measures that are
meaningful across platforms (e.g. *setup time* means queue wait on an
HPC cluster and VM startup latency on a cloud). These dataclasses are
the snapshots the query interfaces return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class ComputeRepresentation:
    """Compute category of one resource at a point in time."""

    total_cores: int
    cores_per_node: int
    free_cores: int
    utilization: float              # fraction of cores allocated
    queue_length: int               # jobs waiting
    queued_core_seconds: float      # work waiting (cores x walltime)
    #: pending jobs by kind ("background", "pilot", ...): the paper's
    #: "queue composition and types of jobs already scheduled".
    queue_composition: "tuple[tuple[str, int], ...]"
    scheduler_policy: str           # e.g. "easy-backfill"
    #: estimated seconds between submitting a placeholder job and it
    #: becoming active — the uniform "setup time" measure.
    setup_time_estimate: float
    #: True while the resource is in an outage window (dispatch frozen);
    #: the health registry's monitor subscriptions key off this.
    offline: bool = False


@dataclass(frozen=True)
class NetworkRepresentation:
    """Network category: connectivity between the origin and the resource."""

    bandwidth_bytes_per_s: float
    latency_s: float
    active_flows: int


@dataclass(frozen=True)
class StorageRepresentation:
    """Storage category: the shared filesystem at the resource."""

    files: int
    used_bytes: float


@dataclass(frozen=True)
class ResourceRepresentation:
    """The full characterization of one resource (all categories)."""

    name: str
    timestamp: float
    compute: ComputeRepresentation
    network: NetworkRepresentation
    storage: StorageRepresentation
