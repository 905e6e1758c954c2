"""The fault injector: enacts a FaultPlan against a live simulation.

The injector is armed once against the stack's handles (pilot manager,
network, clusters) and then drives everything through the kernel:
scripted actions become scheduled events, hazards become seeded Poisson
processes. Every enacted fault is recorded to the injector's fault log
with *stable* target names, so a seeded run reproduces an identical log
byte-for-byte.

All randomness comes from streams derived from the plan's own seed —
never from the kernel's streams — so adding fault draws does not perturb
the substrate's workloads, and the same plan yields the same timeline on
any simulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster import Cluster
from ..des import RngStreams, Simulation, hazard_process
from ..net import Network
from ..pilot import ComputePilot, PilotManager, PilotState
from ..saga import FallibleAdaptor, SagaState, SubmissionFaultModel
from ..telemetry.eventlog import EventLog
from .plan import DegradeLink, FaultPlan, KillPilot, Outage, PilotHazard


def fault_log() -> EventLog:
    """An empty fault log ("faults: 2 injected (pilot-kill x2); ...")."""
    return EventLog("faults", empty="none injected", noun="injected")


class FaultInjectionError(Exception):
    """Raised when a plan cannot be armed against the given stack."""


class FaultInjector:
    """Enacts one :class:`FaultPlan` on one simulation."""

    def __init__(
        self,
        sim: Simulation,
        plan: FaultPlan,
        pilot_manager: Optional[PilotManager] = None,
        network: Optional[Network] = None,
        clusters: Optional[Dict[str, Cluster]] = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.pilot_manager = pilot_manager
        self.network = network
        if clusters is None and pilot_manager is not None:
            clusters = dict(pilot_manager._clusters)
        self.clusters = clusters or {}
        #: plan times are *relative* to this simulated instant, the
        #: arming time, so ``at=3600`` means "an hour into the chaos
        #: run" regardless of any warm-up that preceded it.
        self.epoch: Optional[float] = None
        self.log = fault_log()
        self._rng = RngStreams(plan.seed)
        self._armed = False

    # -- lifecycle -----------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Schedule every scripted action and start every hazard process.

        Once armed, a plan runs to its end: hazards stop only at their
        window's ``stop``.
        """
        if self._armed:
            return self
        self._armed = True
        epoch = self.epoch = self.sim.now
        for action in self.plan.of_kind("kill-pilot"):
            self.sim.call_at(epoch + action.at, self._enact_kill, action)
        for action in self.plan.of_kind("outage"):
            self.sim.call_at(epoch + action.at, self._enact_outage, action)
        self._arm_link_faults()
        self._arm_submission_faults()
        for i, action in enumerate(self.plan.of_kind("pilot-hazard")):
            rng = self._rng.spawn("pilot-hazard", i)
            hazard_process(
                self.sim,
                action.rate_per_s,
                lambda now, a=action, r=rng: self._enact_hazard_kill(a, r),
                rng,
                start=epoch + action.start,
                stop=epoch + action.stop,
                name=f"fault/pilot-hazard.{i}",
            )
        return self

    # -- pilot kills ---------------------------------------------------------

    def _candidates(self, resource: Optional[str]) -> List[ComputePilot]:
        if self.pilot_manager is None:
            return []
        return [
            p for p in self.pilot_manager.pilots
            if not p.is_final and (resource is None or p.resource == resource)
        ]

    def _stable_name(self, pilot: ComputePilot) -> str:
        idx = self.pilot_manager.pilots.index(pilot)
        return f"{pilot.resource}/pilot#{idx}"

    def _enact_kill(self, action: KillPilot) -> None:
        if self.pilot_manager is None:
            raise FaultInjectionError("kill-pilot requires a pilot manager")
        if action.index is not None:
            pilots = self.pilot_manager.pilots
            victim = (
                pilots[action.index]
                if action.index < len(pilots) and not pilots[action.index].is_final
                else None
            )
        else:
            candidates = self._candidates(action.resource)
            victim = candidates[0] if candidates else None
        self._kill(victim, cause="scripted")

    def _enact_hazard_kill(self, action: PilotHazard, rng) -> None:
        candidates = self._candidates(action.resource)
        victim = (
            candidates[int(rng.integers(len(candidates)))]
            if candidates else None
        )
        self._kill(victim, cause="hazard")

    def _kill(self, pilot: Optional[ComputePilot], cause: str) -> None:
        if pilot is None:
            self.log.record(self.sim.now, "pilot-kill-miss", "*", cause=cause)
            return
        name = self._stable_name(pilot)
        state = pilot.state.value
        job = pilot.saga_job
        if job is not None and job.native is not None and not job.is_final:
            cluster = self.clusters.get(pilot.resource)
            if cluster is None:
                cluster = job.service.adaptor.cluster
            cluster.kill_job(job.native)
        elif job is not None and not job.is_final:
            # killed inside the middleware round-trip window
            job._set_state(SagaState.FAILED)
        elif not pilot.is_final:
            pilot.advance(PilotState.FAILED)
        self.log.record(
            self.sim.now, "pilot-kill", name, cause=cause, state=state,
        )

    # -- resource outages ------------------------------------------------------

    def _enact_outage(self, action: Outage) -> None:
        cluster = self.clusters.get(action.resource)
        if cluster is None:
            raise FaultInjectionError(
                f"outage names unknown resource {action.resource!r}; "
                f"known: {sorted(self.clusters)}"
            )
        cluster.set_offline(action.duration)
        self.log.record(
            self.sim.now, "outage", action.resource, duration=action.duration,
        )

    # -- link degradation --------------------------------------------------------

    def _arm_link_faults(self) -> None:
        actions = self.plan.of_kind("degrade-link")
        if not actions:
            return
        if self.network is None:
            raise FaultInjectionError("degrade-link requires a network")
        by_site: Dict[str, List[DegradeLink]] = {}
        for a in actions:
            self.network.link_to(a.site)  # raises UnknownSite early
            by_site.setdefault(a.site, []).append(a)
        for site, windows in by_site.items():
            boundaries = sorted(
                {w.at for w in windows} | {w.until for w in windows}
            )
            for t in boundaries:
                self.sim.call_at(
                    self.epoch + t, self._apply_link_factor, site, windows
                )

    def _apply_link_factor(self, site: str, windows: List[DegradeLink]) -> None:
        # Severity composition: the lowest factor among active windows wins.
        now = self.sim.now
        rel = now - self.epoch
        active = [w.factor for w in windows if w.at <= rel < w.until]
        factor = min(active) if active else 1.0
        link = self.network.link_to(site)
        if factor == link.degradation:
            return
        link.set_degradation(factor)
        self.log.record(
            now,
            "link-restore" if factor == 1.0 else "link-degrade",
            site,
            factor=factor,
        )

    # -- submission faults ----------------------------------------------------------

    def _arm_submission_faults(self) -> None:
        scripted = self.plan.of_kind("submit-failures")
        hazards = self.plan.of_kind("submit-hazard")
        if not scripted and not hazards:
            return
        if self.pilot_manager is None:
            raise FaultInjectionError("submission faults require a pilot manager")
        model = SubmissionFaultModel(
            self.sim,
            self._rng.get("submit-hazard"),
            on_fault=lambda resource, job, permanent: self.log.record(
                self.sim.now, "submit-fail", resource, permanent=permanent,
            ),
        )
        for a in scripted:
            model.add_scripted(a.count, resource=a.resource, permanent=a.permanent)
        for a in hazards:
            model.add_hazard(
                a.p_fail, resource=a.resource, permanent=a.permanent,
                start=self.epoch + a.start, stop=self.epoch + a.stop,
            )
        self.submission_model = model
        self.pilot_manager.set_adaptor_wrapper(
            lambda adaptor: FallibleAdaptor(adaptor, model)
        )
