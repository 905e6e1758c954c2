"""Pilot and compute-unit entities (instrumented state holders)."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, List, Optional

from ..des import Signal, Simulation, Waitable
from ..lifecycle import (
    PILOT_FINAL,
    PilotState,
    StateHistory,
    UNIT_FINAL,
    UnitState,
    check_transition,
)
from .description import ComputePilotDescription, ComputeUnitDescription

if TYPE_CHECKING:  # pragma: no cover
    from .agent import Agent

# Enum .value goes through DynamicClassAttribute (a descriptor call);
# state transitions are hot enough that the per-state strings and
# counter names are precomputed once here.
_PILOT_COUNTER = {s: f"pilot.state.{s.value}" for s in PilotState}
_UNIT_COUNTER = {s: f"unit.state.{s.value}" for s in UnitState}

def _next_id(sim: Simulation, kind: str) -> int:
    """Per-simulation entity id allocation.

    Counters live on the simulation (not the module) so two same-seed
    runs in one process mint identical uids — entity names feed the
    telemetry digest, which must be byte-stable across replays.
    """
    counters = getattr(sim, "_entity_ids", None)
    if counters is None:
        counters = sim._entity_ids = {}
    counter = counters.get(kind)
    if counter is None:
        counter = counters[kind] = itertools.count(1)
    return next(counter)


class ComputePilot:
    """One resource placeholder, from description to termination."""

    def __init__(self, sim: Simulation, description: ComputePilotDescription) -> None:
        self.sim = sim
        self.description = description
        self.uid = f"pilot.{_next_id(sim, 'pilot'):04d}"
        self.state = PilotState.NEW
        self.history = StateHistory()
        self.history.append(self.state.value, sim.now)
        sim.telemetry.transition(
            "pilot", self.uid, PilotState.NEW.value,
            resource=description.resource, cores=description.cores,
        )
        self.agent: Optional["Agent"] = None
        self.saga_job = None  # set by the PilotManager
        #: True when the pilot was failed fast by a quarantine rejection
        #: (breaker open) — not evidence of resource misbehaviour.
        self.quarantine_rejected = False
        self._active = Signal(sim)
        self._callbacks: List[Callable[["ComputePilot", PilotState], None]] = []

    # -- observation --------------------------------------------------------------

    @property
    def resource(self) -> str:
        return self.description.resource

    @property
    def cores(self) -> int:
        return self.description.cores

    @property
    def is_active(self) -> bool:
        return self.state is PilotState.ACTIVE

    @property
    def is_final(self) -> bool:
        return self.state in PILOT_FINAL

    def wait_active(self) -> Waitable:
        """Waitable fired when the pilot becomes ACTIVE (fails if it never does)."""
        return self._active

    def add_callback(self, fn: Callable[["ComputePilot", PilotState], None]) -> None:
        self._callbacks.append(fn)

    @property
    def activated_at(self) -> Optional[float]:
        return self.history.timestamp(PilotState.ACTIVE.value)

    @property
    def queue_wait(self) -> Optional[float]:
        """Seconds from submission to activation (the pilot's share of Tw)."""
        submitted = self.history.timestamp(PilotState.LAUNCHING.value)
        activated = self.activated_at
        if submitted is None or activated is None:
            return None
        return activated - submitted

    # -- state machine ---------------------------------------------------------------

    def advance(self, new_state: PilotState) -> None:
        if self.is_final:
            # A late echo (a SAGA job state change arriving after a
            # cancel or kill already finalized the pilot) is ignored.
            return
        check_transition(self.state, new_state)
        self.state = new_state
        sv = new_state.value
        self.history.append(sv, self.sim._now)  # property bypass: hot path
        tel = self.sim.telemetry
        if tel.enabled:
            tel.transition(
                "pilot", self.uid, sv,
                final=new_state in PILOT_FINAL, resource=self.resource,
            )
            tel.metrics.counter(_PILOT_COUNTER[new_state]).inc()
        if self._callbacks:
            for fn in list(self._callbacks):
                fn(self, new_state)
        if new_state is PilotState.ACTIVE and not self._active.triggered:
            self._active.succeed(self)
        if new_state in PILOT_FINAL and not self._active.triggered:
            self._active.fail(
                RuntimeError(f"{self.uid} finished without becoming active")
            )


class ComputeUnit:
    """One application task travelling through the pilot middleware."""

    def __init__(self, sim: Simulation, description: ComputeUnitDescription) -> None:
        self.sim = sim
        self.description = description
        self.uid = f"unit.{_next_id(sim, 'unit'):06d}"
        self.state = UnitState.NEW
        self.history = StateHistory()
        self.history.append(self.state.value, sim.now)
        sim.telemetry.transition(
            "unit", self.uid, UnitState.NEW.value, task=description.name,
        )
        self.pilot: Optional[ComputePilot] = None
        self.restarts = 0
        self._final = Signal(sim)

    # -- observation ----------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.description.name

    @property
    def cores(self) -> int:
        return self.description.cores

    @property
    def is_final(self) -> bool:
        return self.state in UNIT_FINAL and not (
            self.state is UnitState.FAILED and self.can_restart
        )

    @property
    def can_restart(self) -> bool:
        return self.restarts < self.description.max_restarts

    def wait_final(self) -> Waitable:
        return self._final

    # -- state machine -----------------------------------------------------------------

    def advance(self, new_state: UnitState) -> None:
        check_transition(self.state, new_state)
        self.state = new_state
        sv = new_state.value
        self.history.append(sv, self.sim._now)  # property bypass: hot path
        tel = self.sim.telemetry
        if tel.enabled:
            tel.transition(
                "unit", self.uid, sv,
                final=self.is_final,
                pilot=self.pilot.uid if self.pilot else None,
            )
            tel.metrics.counter(_UNIT_COUNTER[new_state]).inc()
        if new_state is UnitState.DONE or new_state is UnitState.CANCELED:
            if not self._final.triggered:
                self._final.succeed(self)
        elif new_state is UnitState.FAILED and not self.can_restart:
            if not self._final.triggered:
                self._final.succeed(self)
