"""Dynamic execution: strategies that change during execution.

The paper's future-work section plans to "study dynamic execution where
application strategies change during execution to maintain the coupling
between dynamic workloads and dynamic resources". This module implements
the first and most valuable such adaptation: **pilot reinforcement**.

If no pilot has become active within a deadline (all chosen queues turned
out to be slow — exactly the early-binding failure mode the paper
measures), the adaptive policy revises the strategy mid-flight: it
submits a *backup pilot* on the best-ranked resource not already used,
consulting the bundle's predictive interface at revision time, when the
queue-state information is fresher than it was at planning time. Each
revision is recorded as an explicit decision, keeping the Execution
Strategy abstraction's "decisions are explicit" property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..bundle import ResourceBundle
from ..des import Simulation
from ..pilot import (
    ComputePilot,
    ComputePilotDescription,
    PilotManager,
    UnitManager,
)
from .strategy import Decision, ExecutionStrategy


@dataclass(frozen=True)
class AdaptationPolicy:
    """When and how to reinforce a struggling execution."""

    #: submit a backup pilot if no pilot is active after this long.
    activation_deadline_s: float = 1800.0
    #: at most this many backup pilots per execution.
    max_backup_pilots: int = 2
    #: re-arm the deadline after each backup submission.
    redeadline_s: float = 1800.0
    #: pilot succession: when an active pilot is within this many seconds
    #: of its walltime limit and work remains, submit a successor pilot on
    #: the same resource so tasks hop over instead of being stranded.
    #: None disables renewal.
    renew_before_s: Optional[float] = None
    #: at most this many successor pilots per execution.
    max_renewals: int = 2


@dataclass
class AdaptationEvent:
    """One mid-flight strategy revision."""

    time: float
    reason: str
    resource: str
    pilot_uid: str


class PilotReinforcer:
    """Watches an execution and submits backup pilots on stalled starts."""

    def __init__(
        self,
        sim: Simulation,
        bundle: ResourceBundle,
        pilot_manager: PilotManager,
        unit_manager: UnitManager,
        strategy: ExecutionStrategy,
        pilots: List[ComputePilot],
        policy: AdaptationPolicy,
        access_schemas: Optional[dict] = None,
        on_new_pilot=None,
        health=None,
    ) -> None:
        self.sim = sim
        self.bundle = bundle
        self.pilot_manager = pilot_manager
        self.unit_manager = unit_manager
        self.strategy = strategy
        self.pilots = pilots
        self.policy = policy
        self.access_schemas = access_schemas or {}
        #: a :class:`~repro.health.HealthRegistry`; when set, backup and
        #: successor pilots avoid quarantined resources.
        self.health = health
        #: called with each backup pilot (e.g. to attach failure guards).
        self.on_new_pilot = on_new_pilot
        self.events: List[AdaptationEvent] = []
        self._stopped = False
        self._renewed: set = set()
        self._renewals = 0
        sim.process(self._watch(), name="pilot-reinforcer")
        if policy.renew_before_s is not None:
            sim.process(self._renewal_watch(), name="pilot-renewer")

    def stop(self) -> None:
        self._stopped = True

    # -- internals ---------------------------------------------------------------

    def _any_active(self) -> bool:
        return any(p.is_active for p in self.pilots)

    def _used_resources(self) -> set:
        return {p.resource for p in self.pilots if not p.is_final}

    def _pick_backup_resource(self) -> Optional[str]:
        used = self._used_resources()
        for name, _wait in self.bundle.rank_by_expected_wait(
            cores=self.strategy.pilot_cores
        ):
            if name in used:
                continue
            if self.health is not None and self.health.is_quarantined(name):
                continue  # reinforcing with a sick resource helps nobody
            cap = self.bundle.query(name).compute.total_cores
            if self.strategy.pilot_cores <= cap:
                return name
        return None

    def _watch(self):
        deadline = self.policy.activation_deadline_s
        backups = 0
        while not self._stopped and backups < self.policy.max_backup_pilots:
            yield self.sim.timeout(deadline)
            if self._stopped or self._any_active():
                return
            resource = self._pick_backup_resource()
            if resource is None:
                return  # nowhere left to reinforce
            desc = ComputePilotDescription(
                resource=resource,
                cores=self.strategy.pilot_cores,
                runtime_min=self.strategy.pilot_walltime_min,
                access_schema=self.access_schemas.get(resource, "slurm"),
            )
            (pilot,) = self.pilot_manager.submit_pilots(desc)
            self.pilots.append(pilot)
            self.unit_manager.add_pilots(pilot)
            if self.on_new_pilot is not None:
                self.on_new_pilot(pilot)
            event = AdaptationEvent(
                time=self.sim.now,
                reason=(
                    f"no pilot active after {deadline:.0f}s; predicted "
                    f"best remaining queue is {resource}"
                ),
                resource=resource,
                pilot_uid=pilot.uid,
            )
            self.events.append(event)
            self.strategy.decisions.append(
                Decision(
                    name=f"backup_pilot_{backups + 1}",
                    value=resource,
                    rationale=event.reason,
                    depends_on=("resources",),
                )
            )
            self.sim.telemetry.instant(
                "execution", "backup-pilot", track="adaptation",
                resource=resource, pilot=pilot.uid,
            )
            backups += 1
            deadline = self.policy.redeadline_s

    def _work_remaining(self) -> bool:
        return any(not u.is_final for u in self.unit_manager.units)

    def _renewal_watch(self):
        """Pilot succession: replace pilots about to hit their walltime."""
        horizon = self.policy.renew_before_s
        interval = max(30.0, horizon / 2.0)
        while not self._stopped:
            yield self.sim.timeout(interval)
            if self._stopped or self._renewals >= self.policy.max_renewals:
                return
            if not self._work_remaining():
                return
            now = self.sim.now
            for pilot in list(self.pilots):
                if not pilot.is_active or pilot.uid in self._renewed:
                    continue
                activated = pilot.activated_at
                if activated is None:
                    continue
                expected_end = activated + pilot.description.runtime_s
                if expected_end - now > horizon:
                    continue
                if self.health is not None and self.health.is_quarantined(
                    pilot.resource
                ):
                    continue  # no successor on a quarantined resource
                desc = ComputePilotDescription(
                    resource=pilot.resource,
                    cores=pilot.cores,
                    runtime_min=pilot.description.runtime_min,
                    access_schema=self.access_schemas.get(
                        pilot.resource, "slurm"
                    ),
                )
                (successor,) = self.pilot_manager.submit_pilots(desc)
                self._renewed.add(pilot.uid)
                self._renewals += 1
                self.pilots.append(successor)
                self.unit_manager.add_pilots(successor)
                if self.on_new_pilot is not None:
                    self.on_new_pilot(successor)
                event = AdaptationEvent(
                    time=now,
                    reason=(
                        f"{pilot.uid} within {horizon:.0f}s of its walltime "
                        "with work remaining; submitted successor"
                    ),
                    resource=pilot.resource,
                    pilot_uid=successor.uid,
                )
                self.events.append(event)
                self.strategy.decisions.append(
                    Decision(
                        name=f"renewal_{self._renewals}",
                        value=pilot.resource,
                        rationale=event.reason,
                        depends_on=("pilot_walltime_min",),
                    )
                )
                self.sim.telemetry.instant(
                    "execution", "renewal", track="adaptation",
                    resource=pilot.resource, pilot=successor.uid,
                    predecessor=pilot.uid,
                )
                if self._renewals >= self.policy.max_renewals:
                    return
