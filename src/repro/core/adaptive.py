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
Strategy abstraction's "decisions are explicit" property. A backup pilot
joins the run through the Execution Manager's one per-execution path
(``describe`` and ``add_pilot``), exactly like the initial pilots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .strategy import Decision

#: after each backup submission, wait this long again before the next.
REDEADLINE_S = 1800.0


@dataclass(frozen=True)
class AdaptationPolicy:
    """When and how to reinforce a struggling execution."""

    #: submit a backup pilot if no pilot is active after this long.
    activation_deadline_s: float = 1800.0
    #: at most this many backup pilots per execution.
    max_backup_pilots: int = 2


@dataclass
class AdaptationEvent:
    """One mid-flight strategy revision."""

    time: float
    reason: str
    resource: str
    pilot_uid: str


class PilotReinforcer:
    """Watches an execution and adds backup pilots.

    ``execution`` is the Execution Manager's per-execution object: every
    pilot this class adds goes through its ``describe``/``add_pilot``
    path and lands on ``best_healthy``, and the watcher ends at its next
    wake-up once the execution is ``closed``.
    """

    def __init__(self, execution, policy: AdaptationPolicy) -> None:
        self.execution = execution
        self.policy = policy
        self.events: List[AdaptationEvent] = []
        execution.sim.process(self._watch(), name="pilot-reinforcer")

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
            deadline = REDEADLINE_S
