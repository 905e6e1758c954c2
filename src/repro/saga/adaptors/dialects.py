"""The three middleware dialects of the simulated resource pool.

Dialect quirks modelled (each one is a real-world behaviour of the
corresponding middleware family):

* **Slurm-like**: walltime in whole minutes, rounded *up*; rejects
  requests beyond the partition limit.
* **PBS-like**: walltime in whole seconds; node-granular allocation —
  core requests are rounded up to whole nodes, so a 10-core request on
  a 16-core-per-node machine occupies 16 cores.
* **HTCondor-like** (glidein-style): no hard walltime enforcement by
  the submitter — requests get a generous padded walltime — but extra
  submission latency from the match-making cycle.
"""

from __future__ import annotations

import math

from ...cluster import BatchJob, Cluster
from ..description import JobDescription
from .base import Adaptor, AdaptorError


class SlurmAdaptor(Adaptor):
    """Slurm-like dialect: minute-granular walltimes, partition limits."""

    scheme = "slurm"
    submission_latency_s = 1.0
    partition_limit_minutes = 48 * 60

    def translate(self, description: JobDescription) -> BatchJob:
        minutes = math.ceil(description.wall_time_limit)
        if minutes > self.partition_limit_minutes:
            raise AdaptorError(
                f"slurm partition limit is {self.partition_limit_minutes} min, "
                f"requested {minutes}"
            )
        return BatchJob(
            cores=description.total_cpu_count,
            runtime=description.simulated_runtime_s,
            walltime=minutes * 60.0,
            user="aimes",
            name=description.name or "slurm-job",
            kind="pilot",
        )


class PbsAdaptor(Adaptor):
    """PBS/Torque-like dialect: node-granular allocation."""

    scheme = "pbs"
    submission_latency_s = 2.0

    def translate(self, description: JobDescription) -> BatchJob:
        cpn = self.cluster.cores_per_node
        nodes = math.ceil(description.total_cpu_count / cpn)
        cores = nodes * cpn
        if cores > self.cluster.total_cores:
            raise AdaptorError(
                f"pbs: {nodes} nodes exceed the machine "
                f"({self.cluster.nodes} nodes)"
            )
        return BatchJob(
            cores=cores,
            runtime=description.simulated_runtime_s,
            walltime=round(description.wall_time_limit * 60.0),
            user="aimes",
            name=description.name or "pbs-job",
            kind="pilot",
        )


class CondorAdaptor(Adaptor):
    """HTCondor-like dialect: padded walltime, slow match-making."""

    scheme = "condor"
    submission_latency_s = 15.0
    walltime_padding = 1.5

    def translate(self, description: JobDescription) -> BatchJob:
        return BatchJob(
            cores=description.total_cpu_count,
            runtime=description.simulated_runtime_s,
            walltime=description.wall_time_limit * 60.0 * self.walltime_padding,
            user="aimes",
            name=description.name or "condor-job",
            kind="pilot",
        )


ADAPTORS = {cls.scheme: cls for cls in (SlurmAdaptor, PbsAdaptor, CondorAdaptor)}
