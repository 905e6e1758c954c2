"""The unit watchdog: catch hung units and put them back in the pool.

Pilot-death recovery only fires when a pilot reaches a final state. A
unit can stall *without* that ever happening: its staging transfer sits
on a fully partitioned link, or its pilot's site wedged while the
placeholder job still looks alive. Such units never become final, so an
execution waiting on them runs forever.

The watchdog enforces a per-unit progress deadline: a unit bound to an
*active* pilot that has not advanced state for ``timeout_s`` seconds is
canceled and rescheduled through the ordinary restart machinery (it goes
back to UNSCHEDULED and the scheduler re-binds it — to a different,
healthy pilot when the breaker has quarantined the stuck one). Units in
EXECUTING get their declared duration added to the allowance, so long
tasks are never mistaken for hangs; units whose pilot is still queued
are waiting, not hung, and are left to pilot-level recovery.
"""

from __future__ import annotations

from typing import Sequence

from ..des import Simulation
from ..lifecycle import UNIT_TABLE, UnitState

#: states with a live driving process where "no transition" means "stuck":
#: the ones that feed execution (tx) or staging (ts).
_WATCHED = frozenset(
    state for state, row in UNIT_TABLE.items() if row.component in ("tx", "ts")
)


class UnitWatchdog:
    """Scans units for progress and reschedules the ones that stalled."""

    def __init__(
        self,
        sim: Simulation,
        unit_manager,
        units: Sequence,
        timeout_s: float,
        registry=None,
    ) -> None:
        if timeout_s <= 0:
            raise ValueError("watchdog timeout must be positive")
        self.sim = sim
        self.unit_manager = unit_manager
        self.units = units
        self.timeout_s = float(timeout_s)
        #: health registry receiving watchdog events (optional).
        self.registry = registry
        #: a quarter of the timeout, at least a second.
        self.check_interval_s = max(1.0, self.timeout_s / 4.0)
        self.rescheduled = 0
        self._stopped = False
        sim.process(self._watch(), name="unit-watchdog")

    def stop(self) -> None:
        self._stopped = True

    # -- internals -----------------------------------------------------------

    def _allowance(self, unit) -> float:
        if unit.state is UnitState.EXECUTING:
            return self.timeout_s + unit.description.duration_s
        return self.timeout_s

    def _is_stalled(self, unit) -> bool:
        if unit.is_final or unit.state not in _WATCHED:
            return False
        pilot = unit.pilot
        if pilot is None or not pilot.is_active:
            return False  # queued behind its pilot, not hung
        entries = unit.history.as_list()
        if not entries:
            return False
        _, last_t = entries[-1]
        return self.sim.now - last_t > self._allowance(unit)

    def _watch(self):
        while not self._stopped:
            yield self.sim.timeout(self.check_interval_s)
            if self._stopped:
                return
            pending = False
            for unit in self.units:
                if unit.is_final:
                    continue
                pending = True
                if not self._is_stalled(unit):
                    continue
                stalled_for = self.sim.now - unit.history.as_list()[-1][1]
                state = unit.state.value
                resource = unit.pilot.resource if unit.pilot else None
                if not self.unit_manager.reschedule_stalled(unit):
                    continue
                self.rescheduled += 1
                if self.registry is not None:
                    self.registry.record_event(
                        "watchdog-reschedule",
                        unit.name,
                        state=state,
                        stalled_s=stalled_for,
                        resource=resource,
                    )
                else:
                    self.sim.telemetry.instant(
                        "health", "watchdog-reschedule",
                        track=f"health/{unit.name}", state=state,
                        stalled_s=stalled_for, resource=resource,
                    )
            if not pending:
                return  # all units final: the watchdog's job is done
