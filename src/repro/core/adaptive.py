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
queue-state information is fresher than it was at planning time. With
``renew_before_s`` set, a pilot nearing its walltime with work left gets
a *successor* on the same resource. Each revision is recorded as an
explicit decision, keeping the Execution Strategy abstraction's
"decisions are explicit" property. Both kinds of pilot join the run
through the Execution Manager's one per-execution path (``describe`` and
``add_pilot``), exactly like the initial pilots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .strategy import Decision


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
    """Watches an execution and adds backup and successor pilots.

    ``execution`` is the Execution Manager's per-execution object: every
    pilot this class adds goes through its ``describe``/``add_pilot``
    path, backups land on ``best_healthy``, and both watchers end at
    their next wake-up once the execution is ``closed``.
    """

    def __init__(self, execution, policy: AdaptationPolicy) -> None:
        self.execution = execution
        self.policy = policy
        self.events: List[AdaptationEvent] = []
        self._renewed: set = set()
        self._renewals = 0
        sim = execution.sim
        sim.process(self._watch(), name="pilot-reinforcer")
        if policy.renew_before_s is not None:
            sim.process(self._renewal_watch(), name="pilot-renewer")

    # -- internals ---------------------------------------------------------------

    def _watch(self):
        ex = self.execution
        strategy = ex.strategy
        deadline = self.policy.activation_deadline_s
        backups = 0
        while not ex.closed and backups < self.policy.max_backup_pilots:
            yield ex.sim.timeout(deadline)
            if ex.closed or any(p.is_active for p in ex.pilots):
                return
            # reinforcing with a sick or already used resource helps nobody
            resource = ex.best_healthy(
                strategy.pilot_cores,
                exclude={p.resource for p in ex.pilots if not p.is_final},
            )
            if resource is None:
                return  # nowhere left to reinforce
            pilot = ex.add_pilot(ex.describe(
                resource, strategy.pilot_cores, strategy.pilot_walltime_min
            ))
            event = AdaptationEvent(
                time=ex.sim.now,
                reason=(
                    f"no pilot active after {deadline:.0f}s; predicted "
                    f"best remaining queue is {resource}"
                ),
                resource=resource,
                pilot_uid=pilot.uid,
            )
            self.events.append(event)
            strategy.decisions.append(
                Decision(
                    name=f"backup_pilot_{backups + 1}",
                    value=resource,
                    rationale=event.reason,
                    depends_on=("resources",),
                )
            )
            ex.sim.telemetry.instant(
                "execution", "backup-pilot", track="adaptation",
                resource=resource, pilot=pilot.uid,
            )
            backups += 1
            deadline = self.policy.redeadline_s

    def _renewal_watch(self):
        """Pilot succession: replace pilots about to hit their walltime."""
        ex = self.execution
        horizon = self.policy.renew_before_s
        interval = max(30.0, horizon / 2.0)
        while not ex.closed:
            yield ex.sim.timeout(interval)
            if ex.closed or self._renewals >= self.policy.max_renewals:
                return
            if not ex.work_remaining():
                return
            now = ex.sim.now
            for pilot in list(ex.pilots):
                if not pilot.is_active or pilot.uid in self._renewed:
                    continue
                activated = pilot.activated_at
                if activated is None:
                    continue
                expected_end = activated + pilot.description.runtime_s
                if expected_end - now > horizon:
                    continue
                if ex.health is not None and ex.health.is_quarantined(
                    pilot.resource
                ):
                    continue  # no successor on a quarantined resource
                successor = ex.add_pilot(ex.describe(
                    pilot.resource, pilot.cores,
                    pilot.description.runtime_min,
                ))
                self._renewed.add(pilot.uid)
                self._renewals += 1
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
                ex.strategy.decisions.append(
                    Decision(
                        name=f"renewal_{self._renewals}",
                        value=pilot.resource,
                        rationale=event.reason,
                        depends_on=("pilot_walltime_min",),
                    )
                )
                ex.sim.telemetry.instant(
                    "execution", "renewal", track="adaptation",
                    resource=pilot.resource, pilot=successor.uid,
                    predecessor=pilot.uid,
                )
                if self._renewals >= self.policy.max_renewals:
                    return
