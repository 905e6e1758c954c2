"""The unit manager: binds compute units to pilots and drives them through
their lifecycle (staging, execution, output staging, restart on failure).

The manager owns the binding policy (early-binding ``direct``, or
late-binding ``backfill`` / ``round-robin``), resolves inter-unit data
dependencies, and enforces the paper's fault behaviour: units stranded
by a dying pilot are automatically re-dispatched to surviving pilots.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..des import Interrupt, Process, Simulation, Waitable
from ..lifecycle import PILOT_FINAL, PilotState, UnitState
from ..net import Network, ORIGIN
from .description import ComputeUnitDescription
from .entities import ComputePilot, ComputeUnit
from .schedulers import UnitScheduler, make_unit_scheduler


class UnitManagerError(Exception):
    """Raised on invalid unit-manager operations."""


class UnitManager:
    """Coordinates unit binding and execution over a set of pilots."""

    def __init__(
        self,
        sim: Simulation,
        network: Network,
        scheduler: "str | UnitScheduler" = "backfill",
        health=None,
    ) -> None:
        self.sim = sim
        self.network = network
        #: a :class:`~repro.health.HealthRegistry`; when set, scheduling
        #: passes hide pilots on quarantined resources from the policy,
        #: so no scheduler binds new work to a resource the breaker has
        #: isolated (existing bound units are left to the watchdog).
        self.health = health
        self.scheduler = (
            make_unit_scheduler(scheduler)
            if isinstance(scheduler, str) else scheduler
        )
        # The locality policy reads site filesystems; inject ours if the
        # scheduler was constructed by name (or without one).
        if getattr(self.scheduler, "name", "") == "locality" and (
            getattr(self.scheduler, "network", None) is None
        ):
            self.scheduler.network = network
        self.pilots: List[ComputePilot] = []
        self.units: List[ComputeUnit] = []
        #: The unbound pool: uid -> (entry seq, unit). A unit takes the
        #: next seq each time it enters (submission or restart), so the
        #: dict's order is entry order.
        self._unbound: Dict[int, Tuple[int, ComputeUnit]] = {}
        self._entries = 0
        #: The eligible queue: unbound units with no unmet dependency,
        #: in entry order (``_eligible_seq`` holds their seqs, so a unit
        #: whose last dependency resolves is inserted at its entry
        #: position). Changed only when a unit enters or leaves the
        #: pool or its dependencies resolve, never rebuilt per pass.
        self._eligible: List[ComputeUnit] = []
        self._eligible_seq: List[int] = []
        #: unit name -> unbound units of that name with unmet deps.
        self._blocked: Dict[str, List[ComputeUnit]] = {}
        self._processes: Dict[str, Process] = {}
        #: unit names that have completed (for dependency resolution).
        self._done_names: Set[str] = set()
        #: name -> unmet dependency names.
        self._deps: Dict[str, Set[str]] = {}
        #: reverse index: dependency name -> names still waiting on it,
        #: so a completion touches only its dependents instead of
        #: scanning every unit's dependency set (quadratic in units).
        self._rdeps: Dict[str, Set[str]] = {}
        self._reschedule_pending = False
        metrics = sim.telemetry.metrics
        metrics.gauge("units.total", lambda: len(self.units))
        metrics.gauge("units.done", lambda: self.completed_units)
        metrics.gauge(
            "units.executing",
            lambda: sum(
                1 for u in self.units if u.state is UnitState.EXECUTING
            ),
        )
        metrics.gauge("units.unbound", lambda: len(self._unbound))
        metrics.gauge(
            "pilots.active",
            lambda: sum(1 for p in self.pilots if p.is_active),
        )

    # -- pilots ----------------------------------------------------------------------

    def add_pilots(
        self, pilots: "ComputePilot | Sequence[ComputePilot]"
    ) -> None:
        """Attach pilots; their activations/deaths drive (re)scheduling."""
        if isinstance(pilots, ComputePilot):
            pilots = [pilots]
        for pilot in pilots:
            self.pilots.append(pilot)
            pilot.add_callback(self._on_pilot_state)
        self._schedule_pass()

    # -- units ------------------------------------------------------------------------

    def submit_units(
        self,
        descriptions: "ComputeUnitDescription | Sequence[ComputeUnitDescription]",
        depends_on: Optional[Dict[str, Iterable[str]]] = None,
    ) -> List[ComputeUnit]:
        """Accept units for execution.

        ``depends_on`` maps unit *names* to the names of units whose
        outputs they need; a unit becomes eligible for binding only when
        all its dependencies are DONE. Dependencies are kept per name,
        so a name is submitted once: a batch repeating a name raises
        ``ValueError`` before any of its units is accepted.
        """
        if isinstance(descriptions, ComputeUnitDescription):
            descriptions = [descriptions]
        deps = depends_on or {}
        batch = set()
        for desc in descriptions:
            if desc.name in self._deps or desc.name in batch:
                raise ValueError(f"unit name {desc.name!r} submitted twice")
            batch.add(desc.name)
        out = []
        for desc in descriptions:
            unit = ComputeUnit(self.sim, desc)
            self.units.append(unit)
            unmet = {
                d for d in deps.get(desc.name, ())
                if d not in self._done_names
            }
            self._deps[unit.name] = unmet
            for dep in unmet:
                self._rdeps.setdefault(dep, set()).add(unit.name)
            unit.advance(UnitState.UNSCHEDULED)
            self._enter_pool(unit)
            out.append(unit)
        self._schedule_pass()
        return out

    def wait_units(
        self, units: Optional[Sequence[ComputeUnit]] = None
    ) -> Waitable:
        """Waitable fired when all given units (default: all) are final."""
        targets = list(units) if units is not None else list(self.units)
        return self.sim.all_of([u.wait_final() for u in targets])

    def cancel_units(self, units: Optional[Sequence[ComputeUnit]] = None) -> None:
        """Cancel queued/in-flight units (default: all non-final)."""
        targets = list(units) if units is not None else list(self.units)
        for unit in targets:
            if unit.is_final:
                continue
            proc = self._processes.pop(unit.uid, None)
            if proc is not None and proc.is_alive:
                proc.interrupt("canceled")
            if unit.uid in self._unbound:
                self._leave_pool(unit)
            if unit.state is not UnitState.CANCELED:
                unit.advance(UnitState.CANCELED)

    def reschedule_stalled(self, unit: ComputeUnit, cause: str = "watchdog-stall") -> bool:
        """Cancel a hung unit's lifecycle process and requeue the unit.

        The watchdog's entry point: the interrupt travels the same path
        as a pilot death, so the unit fails, consumes one restart, and
        returns to the pool for rebinding. Returns False when the unit
        has no live driving process (nothing to reschedule).
        """
        proc = self._processes.get(unit.uid)
        if proc is None or not proc.is_alive:
            return False
        proc.interrupt(cause)
        return True

    def poke(self) -> None:
        """Request a scheduling pass (e.g. after a breaker state change)."""
        self._schedule_pass()

    @property
    def completed_units(self) -> int:
        return sum(1 for u in self.units if u.state is UnitState.DONE)

    # -- scheduling pass -----------------------------------------------------------------

    def _schedule_pass(self) -> None:
        """Coalesce binding passes to one per simulated instant."""
        if not self._reschedule_pending:
            self._reschedule_pending = True
            self.sim.call_at(self.sim.now, self._run_pass, priority=2)

    def _run_pass(self) -> None:
        self._reschedule_pending = False
        eligible = self._eligible
        if not eligible:
            return
        pilots = self.pilots
        if self.health is not None:
            pilots = [
                p for p in pilots
                if not self.health.is_quarantined(p.resource)
            ]
        tel = self.sim.telemetry
        if not tel.enabled:
            # Fast path for the campaign configuration: no span
            # bookkeeping, no pass counters.
            self._apply_assignments(self.scheduler.assign(eligible, pilots))
            return
        with tel.span(
            "unit-manager",
            "binding-pass",
            track="unit-manager",
            policy=self.scheduler.name,
            eligible=len(eligible),
            pilots=len(pilots),
        ):
            assignments = self.scheduler.assign(eligible, pilots)
            self._apply_assignments(assignments)
        tel.metrics.counter("unit-manager.binding-passes").inc()
        tel.metrics.counter("unit-manager.bindings").inc(len(assignments))

    def _apply_assignments(self, assignments) -> None:
        # Every newly bound unit leaves the pool before any binds, as
        # the policy returned them against the pool as it stood.
        for unit, _ in assignments:
            self._leave_pool(unit)
        for unit, pilot in assignments:
            self._bind(unit, pilot)

    # -- the unbound pool ------------------------------------------------------------------

    def _enter_pool(self, unit: ComputeUnit) -> None:
        """Add a (re)submitted unit to the pool, behind every entry."""
        self._entries += 1
        seq = self._entries
        self._unbound[unit.uid] = (seq, unit)
        if self._deps.get(unit.name):
            self._blocked.setdefault(unit.name, []).append(unit)
        else:
            self._eligible.append(unit)
            self._eligible_seq.append(seq)

    def _leave_pool(self, unit: ComputeUnit) -> None:
        """Drop a bound or cancelled unit from the pool."""
        seq, _ = self._unbound.pop(unit.uid)
        if self._deps.get(unit.name):
            self._blocked[unit.name].remove(unit)
        else:
            i = bisect_left(self._eligible_seq, seq)
            del self._eligible_seq[i]
            del self._eligible[i]

    def _unblock(self, name: str) -> None:
        """The last dependency of ``name`` resolved: its unbound units
        join the eligible queue at their entry positions."""
        eligible, seqs = self._eligible, self._eligible_seq
        for unit in self._blocked.pop(name, ()):
            seq = self._unbound[unit.uid][0]
            i = bisect_left(seqs, seq)
            seqs.insert(i, seq)
            eligible.insert(i, unit)

    def _bind(self, unit: ComputeUnit, pilot: ComputePilot) -> None:
        unit.pilot = pilot
        if pilot.agent is not None and not pilot.agent.stopped:
            pilot.agent.commit(unit)
        unit.advance(UnitState.SCHEDULING)
        proc = self.sim.process(
            self._drive_unit(unit, pilot), name=f"drive/{unit.uid}"
        )
        self._processes[unit.uid] = proc

    # -- the unit lifecycle process ---------------------------------------------------------

    def _drive_unit(self, unit: ComputeUnit, pilot: ComputePilot):
        acquisition = None
        try:
            # Early binding: wait for the pilot to come up first.
            if not pilot.is_active:
                yield pilot.wait_active()
                # commit now that the agent exists
                if pilot.agent is not None and not pilot.agent.stopped:
                    pilot.agent.commit(unit)

            site = pilot.resource
            agent = pilot.agent

            # -- input staging (holds no cores) --------------------------------
            unit.advance(UnitState.STAGING_INPUT)
            for fname in unit.description.input_staging:
                if not self.network.fs(site).exists(fname):
                    yield self.network.stage(ORIGIN, site, fname)

            # -- wait for cores -------------------------------------------------
            unit.advance(UnitState.PENDING_EXECUTION)
            if unit.cores > agent.cores:
                # This pilot can never host the unit (capacity-blind
                # binding): fail fast and let the restart machinery try
                # another pilot instead of deadlocking on the acquire.
                agent.uncommit(unit, completed=False)
                self._processes.pop(unit.uid, None)
                self._fail_unit(unit)
                return
            acquisition = agent.capacity.acquire(unit.cores)
            yield acquisition

            # The agent's executor launches units serially at a bounded rate.
            launch_delay = agent.reserve_launch_slot()
            if launch_delay > 0:
                yield self.sim.timeout(launch_delay)

            # -- execute ---------------------------------------------------------
            unit.advance(UnitState.EXECUTING)
            yield self.sim.timeout(unit.description.duration_s)
            acquisition.release()
            acquisition = None

            # -- output staging (cores already released) --------------------------
            unit.advance(UnitState.STAGING_OUTPUT)
            for fname, size in unit.description.output_staging:
                self.network.fs(site).write(fname, size, self.sim.now)
                yield self.network.stage(site, ORIGIN, fname)

            agent.uncommit(unit, completed=True)
            self._processes.pop(unit.uid, None)
            unit.advance(UnitState.DONE)
            self._on_unit_done(unit)

        except Interrupt as interrupt:
            self._cleanup_acquisition(acquisition)
            self._processes.pop(unit.uid, None)
            if pilot.agent is not None:
                pilot.agent.uncommit(unit, completed=False)
            if interrupt.cause == "canceled":
                if unit.state is not UnitState.CANCELED:
                    unit.advance(UnitState.CANCELED)
                return
            # pilot died under the unit
            self._fail_unit(unit)
        except RuntimeError:
            # pilot finished without ever becoming active (wait_active failed)
            self._cleanup_acquisition(acquisition)
            self._processes.pop(unit.uid, None)
            self._fail_unit(unit)

    def _cleanup_acquisition(self, acquisition) -> None:
        if acquisition is None:
            return
        if acquisition.granted:
            acquisition.release()
        elif not acquisition.triggered:
            acquisition.cancel()

    def _fail_unit(self, unit: ComputeUnit) -> None:
        unit.restarts += 1
        unit.pilot = None
        unit.advance(UnitState.FAILED)
        if unit.can_restart:
            unit.advance(UnitState.UNSCHEDULED)
            self._enter_pool(unit)
            self._schedule_pass()

    # -- reactions ---------------------------------------------------------------------------

    def _on_unit_done(self, unit: ComputeUnit) -> None:
        name = unit.name
        self._done_names.add(name)
        changed = False
        for dependent in self._rdeps.pop(name, ()):
            deps = self._deps.get(dependent)
            if deps and name in deps:
                deps.discard(name)
                changed = True
                if not deps:
                    self._unblock(dependent)
        if changed or self._unbound:
            self._schedule_pass()

    def _on_pilot_state(self, pilot: ComputePilot, state: PilotState) -> None:
        if state is PilotState.ACTIVE:
            self._schedule_pass()
        elif state in PILOT_FINAL:
            self._abort_units_of(pilot)

    def _abort_units_of(self, pilot: ComputePilot) -> None:
        # Units already in STAGING_OUTPUT have finished executing; the
        # origin-side staging completes even if the pilot is gone.
        for unit in list(self.units):
            if unit.pilot is pilot and not unit.is_final and unit.state not in (
                UnitState.DONE, UnitState.CANCELED, UnitState.STAGING_OUTPUT
            ):
                proc = self._processes.get(unit.uid)
                if proc is not None and proc.is_alive:
                    proc.interrupt("pilot-died")
