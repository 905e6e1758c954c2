"""The Execution Manager: derives and enacts execution strategies.

The five steps of the paper (§III.D):

1. gather information about the application via the Skeleton API and
   about resources via the Bundle API;
2. determine application requirements and resource availability;
3. derive an execution strategy;
4. describe and instantiate pilots on the chosen resources;
5. execute the application on the instantiated pilots.

Tasks are restarted automatically on pilot failure, task outputs are
staged back to the origin, and all pilots are canceled when every task
has executed "so as not to waste resources". Every phase is timestamped
for the TTC decomposition.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..bundle import ResourceBundle
from ..des import Process, Simulation
from ..health import (
    DeadlineSupervisor,
    HealthRegistry,
    ReplanEvent,
    SupervisionPolicy,
    UnitWatchdog,
)
from ..net import Network
from ..pilot import (
    ComputePilot,
    ComputePilotDescription,
    ComputeUnit,
    ComputeUnitDescription,
    PilotManager,
    PilotState,
    UnitManager,
    UnitState,
)
from ..skeleton import SkeletonAPI
from ..telemetry import (
    CausalGraph,
    EventLog,
    TelemetrySummary,
    attribute_report,
    build_graph,
)
from .adaptive import AdaptationEvent, AdaptationPolicy, PilotReinforcer
from .instrumentation import TTCDecomposition, decompose
from .planner import PlannerConfig, derive_strategy
from .strategy import ExecutionStrategy

log = logging.getLogger(__name__)

#: delay between a pilot's placeholder job starting and its agent
#: accepting units (environment setup, agent handshake).
AGENT_BOOTSTRAP_S = 60.0
#: growth of the recovery backoff per replacement.
RECOVERY_BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class RecoveryPolicy:
    """How hard the Execution Manager fights back when pilots die.

    A failed pilot (resource error, walltime kill, injected fault) may be
    replaced by a fresh submission of the same description, up to
    ``max_resubmissions`` replacements per execution, each delayed by a
    backoff that grows by ``RECOVERY_BACKOFF_FACTOR`` per replacement.
    Canceled and cleanly finished pilots
    are never replaced.
    """

    max_resubmissions: int = 2
    backoff_s: float = 60.0
    #: desynchronize backoffs by up to +-this fraction. The draw comes
    #: from the kernel's seeded "recovery-jitter" stream — independent of
    #: the fault plan's streams — so fault-log digests stay reproducible
    #: while concurrent recoveries stop retrying in lockstep.
    jitter_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.max_resubmissions < 0:
            raise ValueError("max_resubmissions must be non-negative")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ValueError("jitter_frac must be in [0, 1)")

    def delay(self, attempt: int, rng=None) -> float:
        """Backoff before the ``attempt``-th replacement (0-based).

        ``rng`` (a numpy Generator) is consulted only when
        ``jitter_frac`` is non-zero; with the default of 0 the delay is
        the exact exponential schedule the tests pin down.
        """
        base = self.backoff_s * (RECOVERY_BACKOFF_FACTOR ** attempt)
        if self.jitter_frac and rng is not None:
            base *= 1.0 + self.jitter_frac * (2.0 * rng.random() - 1.0)
        return base


@dataclass(frozen=True)
class RecoveryEvent:
    """One pilot resubmission enacted by the recovery machinery."""

    time: float
    resource: str
    attempt: int        # 1-based replacement count within this execution
    backoff_s: float


@dataclass
class ExecutionReport:
    """Everything measured about one application execution."""

    application: str
    n_tasks: int
    strategy: ExecutionStrategy
    decomposition: TTCDecomposition
    pilots: List[ComputePilot] = field(repr=False, default_factory=list)
    units: List[ComputeUnit] = field(repr=False, default_factory=list)
    adaptations: List[AdaptationEvent] = field(default_factory=list)
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    #: fault-log slice of this execution's window (chaos runs).
    fault_log: Optional[EventLog] = field(repr=False, default=None)
    #: health-event slice of this execution's window (supervised runs).
    health_log: Optional[EventLog] = field(repr=False, default=None)
    #: mid-run strategy revisions enacted by the deadline supervisor.
    replans: List[ReplanEvent] = field(default_factory=list)
    #: True when the TTC budget expired and the run degraded to a
    #: partial result (see ``decomposition.units_done`` for what landed).
    deadline_expired: bool = False
    #: per-execution telemetry summary (None when the hub is disabled);
    #: carries the metrics snapshot, the hub digest, and the enactment
    #: steps' virtual-time intervals for the Gantt renderer.
    telemetry: Optional[TelemetrySummary] = field(repr=False, default=None)
    #: the causal activity graph, built once per execution; both the
    #: decomposition and the attribution read it.
    graph: Optional[CausalGraph] = field(repr=False, default=None)

    @property
    def ttc(self) -> float:
        return self.decomposition.ttc

    @property
    def succeeded(self) -> bool:
        return self.decomposition.units_done == self.n_tasks

    def summary(self) -> str:
        d = self.decomposition
        line = (
            f"{self.application}: {self.n_tasks} tasks, "
            f"{self.strategy.binding.value}/{self.strategy.unit_scheduler}/"
            f"{self.strategy.n_pilots}p -> TTC {d.ttc:.0f}s "
            f"(Tw {d.tw:.0f}s, Tx {d.tx:.0f}s, Ts {d.ts:.0f}s, "
            f"Trp {d.trp:.0f}s; done {d.units_done}/{self.n_tasks}, "
            f"restarts {d.restarts})"
        )
        if d.n_faults or self.recoveries:
            line += (
                f" [faults {d.n_faults}, lost {d.t_lost:.0f}s, "
                f"resubmissions {len(self.recoveries)}]"
            )
        if d.t_quarantined or d.units_rescheduled or self.replans:
            line += (
                f" [quarantined {d.t_quarantined:.0f}s, "
                f"watchdog reschedules {d.units_rescheduled}, "
                f"replans {len(self.replans)}]"
            )
        if self.deadline_expired:
            line += " [DEADLINE EXPIRED: partial result]"
        return line

    def attribution(self):
        """Causal TTC attribution + critical path for this execution.

        Returns a :class:`repro.telemetry.causality.TTCAttribution`:
        every virtual second of the run charged to exactly one component
        (the partition sums to TTC by construction), plus the backward-
        walked critical path. Derived from :attr:`graph`, so it works
        whether or not telemetry was enabled.
        """
        return attribute_report(self)


class ExecutionError(Exception):
    """Raised when an execution cannot be set up."""


class _Execution:
    """One live execution and the one path by which a pilot joins it.

    The initial pilots, recovery replacements, backup pilots
    (:class:`PilotReinforcer`) and re-plan pilots
    (:class:`~repro.health.DeadlineSupervisor`) are all described by
    :meth:`describe` and added by :meth:`add_pilot`, which registers each
    pilot in one fixed order: the unit manager, the health registry, then
    the final-state guard (:meth:`on_pilot_final`).
    """

    def __init__(self, manager, req, config, strategy, recovery, track):
        self.sim = manager.sim
        self.bundle = manager.bundle
        self.pilot_manager = manager.pilot_manager
        self.health = manager.health
        self.strategy = strategy
        self.unit_manager = UnitManager(
            manager.sim, manager.network, scheduler=strategy.unit_scheduler,
            health=manager.health,
        )
        self.pilots: List[ComputePilot] = []
        self.units: List[ComputeUnit] = []
        self.recovery = recovery
        self.recoveries: List[RecoveryEvent] = []
        #: set when the execution ends; watchers stop at their next wake.
        self.closed = False
        self._access_schemas = manager.access_schemas
        self._req = req
        self._config = config
        self._track = track
        #: recovery budget: replacements started, and those still
        #: waiting out their backoff.
        self._resubmissions = 0
        self._pending = 0
        if self.health is not None:
            self.health.log.add_listener(self._on_health_event)

    def describe(
        self, resource: str, cores: int, runtime_min: float
    ) -> ComputePilotDescription:
        return ComputePilotDescription(
            resource=resource,
            cores=cores,
            runtime_min=runtime_min,
            access_schema=self._access_schemas.get(resource, "slurm"),
        )

    def add_pilot(self, desc: ComputePilotDescription) -> ComputePilot:
        (pilot,) = self.pilot_manager.submit_pilots(desc)
        self.pilots.append(pilot)
        self.unit_manager.add_pilots(pilot)
        if self.health is not None:
            self.health.observe_pilot(pilot)
        pilot.add_callback(self.on_pilot_final)
        if pilot.is_final:
            # failed inside its own submission (a quarantine fail-fast or a
            # permanent rejection), before the guard was registered
            self.on_pilot_final(pilot, pilot.state)
        return pilot

    def best_healthy(self, cores: int, exclude=()) -> Optional[str]:
        """The best-ranked resource for a ``cores``-core pilot that is not
        quarantined, not in ``exclude`` and big enough; None if none is."""
        for name, _wait in self.bundle.rank_by_expected_wait(cores=cores):
            if name in exclude:
                continue
            if self.health is not None and self.health.is_quarantined(name):
                continue
            if self.bundle.query(name).compute.total_cores >= cores:
                return name
        return None

    def work_remaining(self) -> bool:
        return any(not u.is_final for u in self.units)

    def cancel_stranded(self) -> None:
        """Cancel the units that cannot finish. Units already in
        STAGING_OUTPUT have finished executing and complete without their
        pilot; they count as done, not as casualties."""
        self.unit_manager.cancel_units([
            u for u in self.units
            if not u.is_final and u.state is not UnitState.STAGING_OUTPUT
        ])

    def replan(self, exclude) -> ExecutionStrategy:
        """Re-derive the strategy over the bundle minus ``exclude``.

        The pins are cleared: a re-plan must be free to choose fewer
        pilots on different resources than the original run. Raises
        PlanningError when nothing healthy remains.
        """
        base = self._config or PlannerConfig()
        cfg = replace(
            base, resources=None, n_pilots=None,
            exclude=tuple(sorted(set(base.exclude) | set(exclude))),
        )
        return derive_strategy(self._req, self.bundle, cfg)

    def on_pilot_final(self, pilot: ComputePilot, state: PilotState) -> None:
        """Replace a FAILED pilot within the recovery budget. Only when
        every pilot is final *and* no replacement is pending are the
        stranded units canceled, so the execution terminates with a
        faithful failure report."""
        if not pilot.is_final:
            return
        recovery = self.recovery
        if (
            state is PilotState.FAILED
            and recovery is not None
            and self._resubmissions < recovery.max_resubmissions
            and self.work_remaining()
        ):
            delay = recovery.delay(
                self._resubmissions, rng=self.sim.rng.get("recovery-jitter")
            )
            self._resubmissions += 1
            self._pending += 1
            self.sim.telemetry.instant(
                "execution", "recovery-backoff", track=self._track,
                resource=pilot.resource, backoff_s=delay,
            )
            self.sim.call_in(
                delay, self.resubmit, pilot.description, self._resubmissions,
                delay,
            )
            return
        if self._pending == 0 and all(p.is_final for p in self.pilots):
            self.cancel_stranded()

    def resubmit(
        self, desc: ComputePilotDescription, attempt: int, delay: float
    ) -> None:
        self._pending -= 1
        if not self.work_remaining():
            return  # nothing left to recover for
        tel = self.sim.telemetry
        if self.health is not None and self.health.is_quarantined(
            desc.resource
        ):
            # The breaker isolated the original resource while the backoff
            # ran; reroute the replacement to the best healthy resource
            # that fits instead of burning the attempt on a submission the
            # pilot manager would fail fast. With none, retry in place.
            alt = self.best_healthy(desc.cores)
            if alt is not None:
                tel.instant(
                    "execution", "recovery-reroute", track=self._track,
                    quarantined=desc.resource, resource=alt,
                )
                desc = self.describe(alt, desc.cores, desc.runtime_min)
        self.add_pilot(desc)
        self.recoveries.append(RecoveryEvent(
            time=self.sim.now,
            resource=desc.resource,
            attempt=attempt,
            backoff_s=delay,
        ))
        tel.instant(
            "execution", "pilot-resubmit", track=self._track,
            resource=desc.resource, attempt=attempt,
        )

    def close(self) -> None:
        """End the execution: stop the watchers and cancel leftover pilots
        (do not waste allocation)."""
        self.closed = True
        if self.health is not None:
            self.health.log.remove_listener(self._on_health_event)
        self.pilot_manager.cancel_pilots(self.pilots)

    def _on_health_event(self, ev) -> None:
        # a breaker re-closing frees its resource's pilots for new work
        if ev.kind in ("breaker-close", "breaker-half-open"):
            self.unit_manager.poke()


class ExecutionManager:
    """Couples one or more applications to the resources of a bundle."""

    def __init__(
        self,
        sim: Simulation,
        network: Network,
        bundle: ResourceBundle,
        access_schemas: Optional[Dict[str, str]] = None,
        supervision: Optional[SupervisionPolicy] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.bundle = bundle
        self.access_schemas = access_schemas or {}
        #: health supervision policy (None or all-disabled: legacy path).
        self.supervision = supervision
        self.health: Optional[HealthRegistry] = None
        if supervision is not None and supervision.enabled:
            self.health = HealthRegistry(sim, breaker=supervision.breaker)
            self.health.watch(bundle)
        clusters = {name: bundle.cluster(name) for name in bundle.resources()}
        self.pilot_manager = PilotManager(
            sim, clusters, bootstrap_s=AGENT_BOOTSTRAP_S, health=self.health,
        )
        #: attached fault injector, if the run is under chaos (see
        #: :meth:`attach_faults`); its log is woven into every report.
        self.fault_injector = None
        self.reports: List[ExecutionReport] = []

    def attach_faults(self, injector):
        """Attach and arm a fault injector to this manager.

        Subsequent reports carry the injector's fault-log slice
        for their execution window, and the TTC decomposition counts the
        faults that landed inside the run.
        """
        self.fault_injector = injector
        if self.health is not None:
            # the registry sees every injected fault as it lands: observed
            # outages and link partitions trip breakers without waiting
            # for the failure threshold.
            injector.log.add_listener(self.health.on_fault_event)
        injector.arm()
        return injector

    # -- public API ------------------------------------------------------------------

    def run(
        self,
        skeleton: SkeletonAPI,
        config: Optional[PlannerConfig] = None,
        adaptation: Optional[AdaptationPolicy] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> Process:
        """Start an execution; returns a Process whose value is the report.

        The planner derives the strategy from ``config`` (None: the
        planner's defaults). With an :class:`AdaptationPolicy`, the
        strategy may be revised during execution (backup pilots on
        stalled starts). With a :class:`RecoveryPolicy`, failed pilots
        are replaced up to the policy's resubmission budget.
        """
        return self.sim.process(
            self._run(skeleton, config, adaptation, recovery),
            name=f"execute/{skeleton.app.name}",
        )

    def execute(
        self,
        skeleton: SkeletonAPI,
        config: Optional[PlannerConfig] = None,
        adaptation: Optional[AdaptationPolicy] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> ExecutionReport:
        """Blocking convenience: run the kernel until the execution ends."""
        return self.sim.run_process(
            self.run(skeleton, config, adaptation, recovery)
        )

    # -- the enactment process ----------------------------------------------------------

    def _run(
        self,
        skeleton: SkeletonAPI,
        config: Optional[PlannerConfig],
        adaptation: Optional[AdaptationPolicy],
        recovery: Optional[RecoveryPolicy],
    ):
        t_start = self.sim.now
        app_name = skeleton.app.name
        log.debug("enactment of %s starts at t=%.0f", app_name, t_start)
        tel = self.sim.telemetry
        em_track = f"em/{app_name}"
        #: the five enactment steps' spans (None entries while disabled).
        em_spans: List = []

        # Steps 1-2: application and resource information.
        with tel.span(
            "execution", "gather-information", track=em_track, app=app_name
        ) as sp:
            req = skeleton.requirements()
        em_spans.append(sp)

        # Step 3: strategy derivation. Under supervision, quarantined
        # resources are invisible to the planner; a pool with nothing
        # healthy left is a clear, immediate error — not a run that
        # deadlocks waiting on submissions the breakers will reject.
        with tel.span(
            "execution", "derive-strategy", track=em_track, app=app_name
        ) as sp:
            if self.health is not None:
                pool = self.bundle.resources()
                if not self.health.healthy(pool):
                    raise ExecutionError(
                        f"all {len(pool)} resources of bundle "
                        f"{self.bundle.name!r} are quarantined "
                        f"({', '.join(sorted(pool))}); wait for a breaker "
                        "cooldown or widen the bundle"
                    )
            cfg = config
            if self.health is not None:
                quarantined = self.health.quarantined(self.bundle.resources())
                if quarantined:
                    base = cfg or PlannerConfig()
                    cfg = replace(
                        base,
                        exclude=tuple(
                            sorted(set(base.exclude) | set(quarantined))
                        ),
                    )
            strategy = derive_strategy(req, self.bundle, cfg)
        em_spans.append(sp)

        # Preparation: input files appear at the origin.
        with tel.span(
            "execution", "prepare-inputs", track=em_track, app=app_name
        ) as sp:
            skeleton.prepare(self.network)
        em_spans.append(sp)

        # Step 4: describe and instantiate pilots.
        ex = _Execution(self, req, config, strategy, recovery, em_track)
        with tel.span(
            "execution", "instantiate-pilots", track=em_track,
            app=app_name, n_pilots=strategy.n_pilots,
        ) as sp:
            for r in strategy.resources:
                ex.add_pilot(ex.describe(
                    r, strategy.pilot_cores, strategy.pilot_walltime_min
                ))
        em_spans.append(sp)

        # Step 5: execute the application on the pilots. The span stays
        # open across the yield below: it covers submission through the
        # last unit turning final.
        step5 = tel.span(
            "execution", "execute-units", track=em_track,
            app=app_name, n_tasks=req.n_tasks,
        )
        em_spans.append(step5.__enter__())
        concrete = skeleton.concrete
        unit_descs = [
            ComputeUnitDescription(
                name=t.uid,
                duration_s=t.duration,
                cores=t.cores,
                input_staging=tuple(f.name for f in t.inputs),
                output_staging=tuple((f.name, f.size_bytes) for f in t.outputs),
            )
            for t in concrete.all_tasks()
        ]
        depends = {t.uid: t.depends_on for t in concrete.all_tasks()}
        ex.units = ex.unit_manager.submit_units(unit_descs, depends_on=depends)
        # A step-4 pilot that failed inside its own submission met the
        # final-state guard before any unit existed; run the guard again
        # now that there is work to recover or cancel.
        for pilot in ex.pilots:
            if pilot.is_final:
                ex.on_pilot_final(pilot, pilot.state)

        # Optional dynamic execution (backup pilots) and
        # health supervision: the watchdog frees units hung on a wedged
        # resource; the deadline supervisor enforces the TTC budget and
        # re-plans around quarantined resources. Every pilot they add
        # joins through ``ex.add_pilot``.
        reinforcer = (
            PilotReinforcer(ex, adaptation) if adaptation is not None
            else None
        )
        watchdog = None
        supervisor = None
        sup = self.supervision
        if sup is not None and sup.watchdog_timeout_s is not None:
            watchdog = UnitWatchdog(
                self.sim, ex.unit_manager, ex.units, sup.watchdog_timeout_s,
                registry=self.health,
            )
        if sup is not None and sup.deadline_s is not None:
            supervisor = DeadlineSupervisor(
                ex, self.health, sup.deadline_s,
                check_interval_s=sup.check_interval_s,
            )

        yield ex.unit_manager.wait_units(ex.units)
        step5.__exit__(None, None, None)
        t_end = self.sim.now

        if watchdog is not None:
            watchdog.stop()
        ex.close()

        fault_log = (
            self.fault_injector.log.between(t_start, t_end)
            if self.fault_injector is not None else None
        )
        health_log = (
            self.health.log.between(t_start, t_end)
            if self.health is not None else None
        )
        summary = (
            tel.execution_summary([s for s in em_spans if s is not None])
            if tel.enabled else None
        )
        pilots, units = ex.pilots, ex.units
        graph = build_graph(pilots, units, t_start, t_end)
        report = ExecutionReport(
            application=app_name,
            n_tasks=req.n_tasks,
            strategy=strategy,
            decomposition=decompose(
                graph, pilots, units, fault_log=fault_log,
                health_log=health_log,
            ),
            pilots=pilots,
            units=units,
            adaptations=list(reinforcer.events) if reinforcer else [],
            recoveries=ex.recoveries,
            fault_log=fault_log,
            health_log=health_log,
            replans=list(supervisor.replans) if supervisor else [],
            deadline_expired=supervisor.expired if supervisor else False,
            telemetry=summary,
            graph=graph,
        )
        self.reports.append(report)
        log.info("%s", report.summary())
        return report
