"""Deadline supervision: an end-to-end TTC budget with runtime re-planning.

Late binding defers *which pilot* runs a task; the supervisor defers
*which resources* carry the execution. While the run is inside its TTC
budget, it watches the health registry: when resources the strategy
bound have been quarantined and work remains, it re-invokes the planner
over only-healthy resources (late *re*-binding) and submits the pilots
the revised strategy asks for. When the budget is exhausted, it degrades
gracefully — cancels what cannot finish, lets units that already reached
output staging complete, and stamps the report with explicit accounting
(``deadline_expired``) instead of running forever.

The supervisor works on the Execution Manager's per-execution object:
its ``replan`` calls the planner and its ``add_pilot`` adds the pilots
the revised strategy asks for, so this module stays below
:mod:`repro.core` in the layering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..lifecycle import UnitState
from .breaker import BreakerPolicy

#: mid-run strategy revisions allowed per execution.
MAX_REPLANS = 2


@dataclass(frozen=True)
class SupervisionPolicy:
    """How hard the middleware supervises resource health at runtime."""

    #: breaker policy for every resource; None disables quarantining.
    breaker: Optional[BreakerPolicy] = BreakerPolicy()
    #: per-unit progress deadline; None disables the watchdog.
    watchdog_timeout_s: Optional[float] = None
    #: end-to-end TTC budget per execution; None disables the deadline.
    deadline_s: Optional[float] = None
    #: how often the deadline supervisor re-examines the run.
    check_interval_s: float = 300.0

    def __post_init__(self) -> None:
        if self.watchdog_timeout_s is not None and self.watchdog_timeout_s <= 0:
            raise ValueError("watchdog_timeout_s must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")

    @property
    def enabled(self) -> bool:
        return (
            self.breaker is not None
            or self.watchdog_timeout_s is not None
            or self.deadline_s is not None
        )


@dataclass(frozen=True)
class ReplanEvent:
    """One mid-run re-derivation of the execution strategy."""

    time: float
    quarantined: Tuple[str, ...]   # resources excluded from the re-plan
    resources: Tuple[str, ...]     # resources of the revised strategy
    submitted: Tuple[str, ...]     # resources that received a new pilot


class DeadlineSupervisor:
    """Enforces one execution's TTC budget and re-plans around quarantine.

    ``execution`` is the Execution Manager's per-execution object; this
    class reads its ``pilots`` and ``units``, re-derives through its
    ``replan``, adds pilots through its ``describe``/``add_pilot`` path,
    degrades through ``cancel_stranded``, and stops once it is ``closed``.
    """

    def __init__(
        self,
        execution,
        registry,
        deadline_s: float,
        check_interval_s: float,
    ) -> None:
        self.execution = execution
        self.sim = execution.sim
        self.registry = registry
        self.t_deadline = self.sim.now + deadline_s
        self.check_interval_s = check_interval_s
        self.replans: List[ReplanEvent] = []
        self.expired = False
        self.sim.process(self._watch(), name="deadline-supervisor")

    # -- internals -----------------------------------------------------------

    def _watch(self):
        ex = self.execution
        while not ex.closed:
            wait = min(self.check_interval_s, self.t_deadline - self.sim.now)
            yield self.sim.timeout(max(wait, 0.0))
            if ex.closed or not ex.work_remaining():
                return
            if self.sim.now >= self.t_deadline:
                self._expire()
                return
            self._maybe_replan()

    def _maybe_replan(self) -> None:
        if len(self.replans) >= MAX_REPLANS:
            return
        ex = self.execution
        live = {p.resource for p in ex.pilots if not p.is_final}
        quarantined = self.registry.quarantined(tuple(live))
        if not quarantined:
            return
        exclude = self.registry.quarantined(ex.bundle.resources())
        try:
            strategy = ex.replan(exclude)
        except Exception as exc:  # PlanningError: nothing healthy remains
            self.registry.record_event(
                "replan-failed", ",".join(sorted(exclude)), error=str(exc),
            )
            return
        usable = live - set(quarantined)
        submitted = []
        for resource in strategy.resources:
            if resource in usable:
                continue  # already carried by a healthy pilot
            ex.add_pilot(ex.describe(
                resource, strategy.pilot_cores, strategy.pilot_walltime_min
            ))
            submitted.append(resource)
        event = ReplanEvent(
            time=self.sim.now,
            quarantined=tuple(sorted(exclude)),
            resources=tuple(strategy.resources),
            submitted=tuple(submitted),
        )
        self.replans.append(event)
        self.registry.record_event(
            "replan",
            ",".join(sorted(exclude)) or "*",
            resources=list(strategy.resources),
            submitted=submitted,
        )

    def _expire(self) -> None:
        self.expired = True
        ex = self.execution
        self.registry.record_event(
            "deadline-expired",
            "*",
            unfinished=sum(1 for u in ex.units if not u.is_final),
            done=sum(1 for u in ex.units if u.state is UnitState.DONE),
        )
        # Degrade to a partial result: units already staging output get
        # to finish (their compute is spent and safe); everything else
        # is canceled so the execution terminates with honest accounting.
        ex.cancel_stranded()
        ex.pilot_manager.cancel_pilots(ex.pilots)
        # Termination guarantee: output staging gets one check interval
        # of grace, then anything still pending (e.g. a transfer hung on
        # a partitioned link) is cut loose too.
        self.sim.call_in(self.check_interval_s, self._final_sweep)

    def _final_sweep(self) -> None:
        ex = self.execution
        leftovers = [u for u in ex.units if not u.is_final]
        if leftovers:
            self.registry.record_event(
                "deadline-sweep", "*", canceled=len(leftovers),
            )
            ex.unit_manager.cancel_units(leftovers)
