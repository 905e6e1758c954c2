"""The pilot agent: core bookkeeping on an active pilot.

When a pilot becomes active, an :class:`Agent` is attached to it. The
agent owns the pilot's cores as a :class:`~repro.des.CapacityResource`
and tracks *committed* cores — cores promised to units that are bound
to this pilot but may still be staging. The late-binding backfill
scheduler binds against ``uncommitted_cores`` so it never over-subscribes
a pilot, while units overlap their staging with other units' execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set

from ..des import CapacityResource, Simulation

if TYPE_CHECKING:  # pragma: no cover
    from .entities import ComputePilot, ComputeUnit


class AgentError(Exception):
    """Raised on inconsistent agent bookkeeping (a middleware bug)."""


class Agent:
    """Executes units within one active pilot's core allotment."""

    #: sustained unit-launch rate of the agent's executor (units/second).
    #: RADICAL-Pilot-era agents dispatched tens of units per second; this
    #: serialization is what steepens Tx beyond ~256 concurrent tasks.
    launch_rate: float = 20.0

    def __init__(self, sim: Simulation, pilot: "ComputePilot", site: str) -> None:
        self.sim = sim
        self.pilot = pilot
        self.site = site
        self.capacity = CapacityResource(
            sim, pilot.cores, name=f"{pilot.uid}/cores"
        )
        self.committed_cores = 0
        self._bound_units: Set[str] = set()
        self.units_completed = 0
        self.stopped = False
        self._launch_cursor = sim.now

    def reserve_launch_slot(self) -> float:
        """Claim the next executor dispatch slot; returns the delay to it."""
        slot = max(self.sim.now, self._launch_cursor)
        self._launch_cursor = slot + 1.0 / self.launch_rate
        return slot - self.sim.now

    @property
    def cores(self) -> int:
        return self.capacity.capacity

    @property
    def uncommitted_cores(self) -> int:
        """Cores not yet promised to any bound unit (0 when over-committed).

        Capacity-aware policies (backfill) bind against this; capacity-
        blind policies (round-robin) may over-commit, in which case the
        surplus units queue on the agent's core pool.
        """
        return max(0, self.cores - self.committed_cores)

    def commit(self, unit: "ComputeUnit") -> None:
        """Reserve capacity for a unit bound to this pilot."""
        if self.stopped:
            raise AgentError(f"{self.pilot.uid}: commit after stop")
        if unit.uid in self._bound_units:
            raise AgentError(f"{unit.uid} already committed to {self.pilot.uid}")
        self._bound_units.add(unit.uid)
        self.committed_cores += unit.cores

    def uncommit(self, unit: "ComputeUnit", completed: bool) -> None:
        """Release the unit's reservation (on completion or failure)."""
        if unit.uid not in self._bound_units:
            return  # idempotent: double release after pilot death is harmless
        self._bound_units.discard(unit.uid)
        self.committed_cores -= unit.cores
        if self.committed_cores < 0:
            raise AgentError(f"{self.pilot.uid}: negative commitment")
        if completed:
            self.units_completed += 1

    def stop(self) -> None:
        """Mark the agent dead; the unit manager aborts its in-flight units."""
        self.stopped = True
