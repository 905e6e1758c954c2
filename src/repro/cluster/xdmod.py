"""XDMoD-style workload characterization of the simulated resources.

The paper grounds its task durations in XDMoD statistics: "in 2014, more
than 13 million jobs were executed on XSEDE with durations between 30 s
and 30 m, 36% of the total XSEDE workload" (25–55% over 2010–2013). This
module produces the comparable report for a simulated resource, so the
synthetic background workload can be audited against the very statistics
the paper used to justify its experimental parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..des import Simulation
from .job import BatchJob, JobState
from .machine import Cluster

#: duration buckets (label, low_s, high_s); the 30 s – 30 min bucket is
#: the one the paper cites.
DURATION_BUCKETS: Tuple[Tuple[str, float, float], ...] = (
    ("<30s", 0.0, 30.0),
    ("30s-30m", 30.0, 1800.0),
    ("30m-2h", 1800.0, 7200.0),
    ("2h-8h", 7200.0, 8 * 3600.0),
    (">8h", 8 * 3600.0, float("inf")),
)

SIZE_BUCKETS: Tuple[Tuple[str, int, int], ...] = (
    ("1", 1, 1),
    ("2-15", 2, 15),
    ("16-63", 16, 63),
    ("64-255", 64, 255),
    ("256-1023", 256, 1023),
    (">=1024", 1024, 1 << 30),
)


@dataclass
class WorkloadReport:
    """Aggregated statistics of finished jobs on one resource."""

    resource: str
    total_jobs: int
    total_core_hours: float
    duration_fractions: Dict[str, float]
    size_fractions: Dict[str, float]

    def fraction(self, bucket: str) -> float:
        """Fraction of jobs in a duration bucket (e.g. "30s-30m")."""
        return self.duration_fractions.get(bucket, 0.0)


class WorkloadCharacterizer:
    """Collects finished-job statistics from a cluster's transitions."""

    def __init__(self, sim: Simulation, cluster: Cluster) -> None:
        self.sim = sim
        self.cluster = cluster
        self._samples: List[Tuple[float, int]] = []  # (elapsed_s, cores)
        cluster.add_listener(self._on_job_state)

    def _on_job_state(self, job: BatchJob, old: JobState, new: JobState) -> None:
        if (
            old is JobState.RUNNING
            and new in (JobState.COMPLETED, JobState.TIMEOUT)
            and job.start_time is not None
            and job.end_time is not None
        ):
            self._samples.append((job.end_time - job.start_time, job.cores))

    def report(self) -> WorkloadReport:
        """Build the XDMoD-style report from the collected samples."""
        n = len(self._samples)
        duration_counts = {label: 0 for label, _, _ in DURATION_BUCKETS}
        size_counts = {label: 0 for label, _, _ in SIZE_BUCKETS}
        core_hours = 0.0
        for elapsed, cores in self._samples:
            core_hours += elapsed * cores / 3600.0
            for label, lo, hi in DURATION_BUCKETS:
                if lo <= elapsed < hi:
                    duration_counts[label] += 1
                    break
            for label, lo, hi in SIZE_BUCKETS:
                if lo <= cores <= hi:
                    size_counts[label] += 1
                    break
        return WorkloadReport(
            resource=self.cluster.name,
            total_jobs=n,
            total_core_hours=core_hours,
            duration_fractions={
                k: (v / n if n else 0.0) for k, v in duration_counts.items()
            },
            size_fractions={
                k: (v / n if n else 0.0) for k, v in size_counts.items()
            },
        )
