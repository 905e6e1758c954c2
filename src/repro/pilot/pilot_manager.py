"""The pilot manager: launches and tracks pilots through the SAGA layer."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..cluster import Cluster
from ..des import Simulation, Waitable
from ..lifecycle import PilotState
from ..saga import (
    Adaptor,
    JobDescription,
    JobService,
    PermanentSubmitError,
    SagaJob,
    SagaState,
    TransientSubmitError,
)
from .agent import Agent
from .description import ComputePilotDescription
from .entities import ComputePilot

#: transient SAGA submission failures are retried this many times, with
#: a backoff of ``SUBMIT_BACKOFF_S * 2**attempt``, before the pilot is
#: declared FAILED.
SUBMIT_RETRIES = 3
SUBMIT_BACKOFF_S = 30.0


class PilotManagerError(Exception):
    """Raised on invalid pilot submissions."""


class PilotManager:
    """Submits pilot placeholders to the resources' batch systems.

    One manager serves any number of resources; it creates (and caches)
    a SAGA job service per (scheme, resource) pair and translates pilot
    descriptions into placeholder batch jobs. The pilot's agent is
    attached when the placeholder starts running.
    """

    def __init__(
        self,
        sim: Simulation,
        clusters: Dict[str, Cluster],
        bootstrap_s: float = 0.0,
        health=None,
    ) -> None:
        self.sim = sim
        self._clusters = dict(clusters)
        self._services: Dict[str, JobService] = {}
        self.pilots: List[ComputePilot] = []
        #: delay between the placeholder job starting and the agent being
        #: ready to accept units (environment setup, agent handshake).
        self.bootstrap_s = float(bootstrap_s)
        #: a :class:`~repro.health.HealthRegistry`; when set, submissions
        #: to quarantined resources fail fast instead of feeding a
        #: resource the middleware already knows is sick.
        self.health = health
        #: applied to every adaptor as its service is created (and to the
        #: ones already cached) — the fault injector's entry point for
        #: making the SAGA layer fallible.
        self._adaptor_wrapper: Optional[Callable[[Adaptor], Adaptor]] = None
        #: injected submission failures seen (for recovery accounting).
        self.submit_faults = 0

    # -- submission ------------------------------------------------------------

    def submit_pilots(
        self,
        descriptions: "ComputePilotDescription | Sequence[ComputePilotDescription]",
    ) -> List[ComputePilot]:
        """Launch one pilot per description; returns the pilot handles."""
        if isinstance(descriptions, ComputePilotDescription):
            descriptions = [descriptions]
        out = []
        for desc in descriptions:
            out.append(self._launch(desc))
        return out

    def cancel_pilots(self, pilots: Optional[Iterable[ComputePilot]] = None) -> None:
        """Cancel the given pilots (default: all non-final ones)."""
        targets = list(pilots) if pilots is not None else list(self.pilots)
        for pilot in targets:
            if pilot.is_final:
                continue
            if pilot.saga_job is not None:
                pilot.saga_job.cancel()
            else:  # not yet launched
                pilot.advance(PilotState.CANCELED)

    def set_adaptor_wrapper(
        self, wrapper: Optional[Callable[[Adaptor], Adaptor]]
    ) -> None:
        """Install a wrapper around every SAGA adaptor (fault injection).

        Applies to services created later *and* to already-cached ones.
        """
        self._adaptor_wrapper = wrapper
        if wrapper is not None:
            for svc in self._services.values():
                svc.adaptor = wrapper(svc.adaptor)

    # -- internals ----------------------------------------------------------------

    def _service_for(self, resource: str, scheme: str) -> JobService:
        key = f"{scheme}://{resource}"
        svc = self._services.get(key)
        if svc is None:
            cluster = self._clusters.get(resource)
            if cluster is None:
                raise PilotManagerError(
                    f"unknown resource {resource!r}; known: "
                    f"{sorted(self._clusters)}"
                )
            svc = JobService(self.sim, key, cluster)
            if self._adaptor_wrapper is not None:
                svc.adaptor = self._adaptor_wrapper(svc.adaptor)
            self._services[key] = svc
        return svc

    def _launch(self, desc: ComputePilotDescription) -> ComputePilot:
        pilot = ComputePilot(self.sim, desc)
        self.pilots.append(pilot)
        tel = self.sim.telemetry
        if tel.enabled:
            tel.metrics.counter("pilot.submissions").inc()
        pilot.advance(PilotState.LAUNCHING)
        self._try_submit(pilot, desc, attempt=0)
        return pilot

    def _try_submit(
        self, pilot: ComputePilot, desc: ComputePilotDescription, attempt: int
    ) -> None:
        if pilot.is_final:
            return  # canceled while waiting out a submission backoff
        if self.health is not None and not self.health.allow_submission(
            desc.resource
        ):
            # Quarantined resource: fail fast (breaker semantics), and
            # mark the pilot so the registry does not read its FAILED
            # state as fresh evidence against the resource.
            pilot.quarantine_rejected = True
            self.sim.telemetry.instant(
                "pilot", "submit-quarantined",
                track=f"pilot-manager/{desc.resource}", pilot=pilot.uid,
            )
            pilot.advance(PilotState.FAILED)
            return
        svc = self._service_for(desc.resource, desc.access_schema)
        job_desc = JobDescription(
            total_cpu_count=desc.cores,
            wall_time_limit=desc.runtime_min,
            name=pilot.uid,
            simulated_runtime_s=desc.runtime_s,
        )
        try:
            saga_job = svc.submit(job_desc)
        except TransientSubmitError:
            self.submit_faults += 1
            if self.health is not None:
                self.health.record_failure(desc.resource, "submit-fail")
            if attempt < SUBMIT_RETRIES:
                delay = SUBMIT_BACKOFF_S * (2.0 ** attempt)
                self.sim.telemetry.instant(
                    "pilot", "submit-retry", track=f"pilot-manager/{desc.resource}",
                    pilot=pilot.uid, attempt=attempt + 1,
                )
                self.sim.call_in(delay, self._try_submit, pilot, desc, attempt + 1)
            else:
                self.sim.telemetry.instant(
                    "pilot", "submit-exhausted",
                    track=f"pilot-manager/{desc.resource}",
                    pilot=pilot.uid, attempts=attempt + 1,
                )
                pilot.advance(PilotState.FAILED)
            return
        except PermanentSubmitError:
            self.submit_faults += 1
            if self.health is not None:
                self.health.record_failure(desc.resource, "submit-fail")
            self.sim.telemetry.instant(
                "pilot", "submit-rejected",
                track=f"pilot-manager/{desc.resource}", pilot=pilot.uid,
            )
            pilot.advance(PilotState.FAILED)
            return
        pilot.saga_job = saga_job
        saga_job.add_callback(
            lambda job, state, p=pilot: self._on_saga_state(p, job, state)
        )

    def _on_saga_state(
        self, pilot: ComputePilot, job: SagaJob, state: SagaState
    ) -> None:
        if state is SagaState.PENDING:
            pilot.advance(PilotState.PENDING_ACTIVE)
        elif state is SagaState.RUNNING:
            if self.bootstrap_s > 0:
                self.sim.call_in(self.bootstrap_s, self._activate, pilot)
            else:
                self._activate(pilot)
        elif state is SagaState.DONE:
            self._finalize(pilot, PilotState.DONE)
        elif state is SagaState.CANCELED:
            self._finalize(pilot, PilotState.CANCELED)
        elif state is SagaState.FAILED:
            self._finalize(pilot, PilotState.FAILED)

    def _activate(self, pilot: ComputePilot) -> None:
        if pilot.is_final:
            return  # died during bootstrap
        pilot.agent = Agent(self.sim, pilot, site=pilot.resource)
        pilot.advance(PilotState.ACTIVE)

    def _finalize(self, pilot: ComputePilot, state: PilotState) -> None:
        if pilot.agent is not None:
            pilot.agent.stop()
        pilot.advance(state)
