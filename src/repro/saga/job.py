"""Uniform job handles and the job service (the SAGA access layer).

A :class:`JobService` is created from an access URL such as
``slurm://stampede-sim`` and bound to the simulated cluster behind it;
submitting a :class:`~repro.saga.description.JobDescription` yields a
:class:`SagaJob` whose state follows the uniform SAGA model regardless
of the dialect underneath. This is the layer RADICAL-Pilot uses to
submit pilots to heterogeneous resources.
"""

from __future__ import annotations

import re
from typing import Callable, List, Optional

from ..cluster import BatchJob, Cluster
from ..cluster import JobState as NativeState
from ..des import Simulation
from .adaptors.base import Adaptor
from .adaptors.dialects import ADAPTORS
from .description import JobDescription
from .states import SAGA_FINAL, SagaState, map_native_state

_URL_RE = re.compile(r"^([a-z]+)://([A-Za-z0-9._-]+)$")


class SagaJob:
    """A uniform handle on one submitted job."""

    def __init__(self, sim: Simulation, service: "JobService",
                 description: JobDescription) -> None:
        self.sim = sim
        self.service = service
        self.description = description
        self.state = SagaState.NEW
        self.native: Optional[BatchJob] = None
        self._callbacks: List[Callable[["SagaJob", SagaState], None]] = []

    # -- observation -----------------------------------------------------------

    @property
    def is_final(self) -> bool:
        return self.state in SAGA_FINAL

    def add_callback(self, fn: Callable[["SagaJob", SagaState], None]) -> None:
        """Register ``fn(job, new_state)`` on every uniform-state change."""
        self._callbacks.append(fn)

    @property
    def started_at(self) -> Optional[float]:
        return self.native.start_time if self.native else None

    # -- control ----------------------------------------------------------------

    def cancel(self) -> None:
        if self.is_final:
            return
        if self.native is not None:
            self.service.adaptor.cancel(self.native)
        else:  # not yet translated/submitted: finalize locally
            self._set_state(SagaState.CANCELED)

    # -- internals ----------------------------------------------------------------

    def _on_native(self, native: BatchJob, old: NativeState,
                   new: NativeState) -> None:
        mapped = map_native_state(new)
        if mapped != self.state:
            self._set_state(mapped)

    def _set_state(self, state: SagaState) -> None:
        self.state = state
        for fn in list(self._callbacks):
            fn(self, state)


class JobService:
    """Access point to one resource through one middleware dialect."""

    def __init__(self, sim: Simulation, url: str, cluster: Cluster) -> None:
        m = _URL_RE.match(url)
        if m is None:
            raise ValueError(f"malformed access URL {url!r}")
        scheme, host = m.group(1), m.group(2)
        if scheme not in ADAPTORS:
            raise ValueError(
                f"no adaptor for scheme {scheme!r}; known: {sorted(ADAPTORS)}"
            )
        if host != cluster.name:
            raise ValueError(
                f"URL host {host!r} does not match cluster {cluster.name!r}"
            )
        self.sim = sim
        self.url = url
        self.resource_name = cluster.name
        self.adaptor: Adaptor = ADAPTORS[scheme](cluster)
        self.jobs: List[SagaJob] = []

    def submit(self, description: JobDescription) -> SagaJob:
        """Submit a uniform description through this service's dialect."""
        tel = self.sim.telemetry
        if tel.enabled:
            tel.metrics.counter("saga.submissions").inc()
        with tel.span(
            "saga",
            "submit",
            track=f"saga/{self.resource_name}",
            job=description.name or "saga-job",
            scheme=self.adaptor.scheme,
        ):
            job = SagaJob(self.sim, self, description)
            job.native = self.adaptor.submit(description, job._on_native)
            self.jobs.append(job)
        return job
