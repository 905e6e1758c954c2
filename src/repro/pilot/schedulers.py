"""Unit-level scheduling policies: the binding decision of the paper.

* :class:`DirectScheduler` — **early binding**: every unit is assigned
  to a pilot the moment it is submitted, before any pilot is active.
  Units ride out their pilot's queue wait; an application's makespan is
  set by the *last* pilot to activate (Table I, experiments 1–2 use this
  with a single pilot).
* :class:`BackfillScheduler` — **late binding**: units stay in a shared
  pool and are bound only to *active* pilots with uncommitted cores,
  earliest-activated pilot first. The first pilot out of the queue
  starts draining the pool immediately (experiments 3–4). The walk over
  the eligible units stops once no active pilot has an uncommitted
  core, so a pass costs in proportion to what it binds.
* :class:`RoundRobinScheduler` — late binding without capacity
  awareness: units are spread evenly over active pilots as they appear.
  Included as an ablation of the backfill policy.

A policy never mutates units; it returns ``(unit, pilot)`` assignments
and the :class:`~repro.pilot.unit_manager.UnitManager` enacts them.
"""

from __future__ import annotations

import abc
import itertools
from typing import List, Sequence, Tuple

from .entities import ComputePilot, ComputeUnit


class UnitScheduler(abc.ABC):
    """Base class for unit-to-pilot binding policies."""

    name: str = "base"
    #: early-binding policies assign to pilots that are not yet active.
    early_binding: bool = False

    @abc.abstractmethod
    def assign(
        self,
        eligible: Sequence[ComputeUnit],
        pilots: Sequence[ComputePilot],
    ) -> List[Tuple[ComputeUnit, ComputePilot]]:
        """Return the bindings to enact now, in order.

        ``eligible`` is the unit manager's live eligible queue, in entry
        order: read it during the call, never mutate or keep it.
        """


class DirectScheduler(UnitScheduler):
    """Early binding: round-robin over all non-final pilots at submission."""

    name = "direct"
    early_binding = True

    def __init__(self) -> None:
        self._rr = itertools.count()

    def assign(self, eligible, pilots):
        candidates = [p for p in pilots if not p.is_final]
        if not candidates:
            return []
        out = []
        for unit in eligible:
            fitting = [p for p in candidates if p.cores >= unit.cores]
            if not fitting:
                continue  # wait for a pilot the unit can ever fit in
            pilot = fitting[next(self._rr) % len(fitting)]
            out.append((unit, pilot))
        return out


class BackfillScheduler(UnitScheduler):
    """Late binding: fill active pilots' uncommitted cores, oldest first."""

    name = "backfill"
    early_binding = False

    def assign(self, eligible, pilots):
        active = [
            p for p in pilots
            if p.is_active and p.agent is not None and not p.agent.stopped
        ]
        active.sort(key=lambda p: (p.activated_at, p.uid))
        out = []
        free = {p.uid: p.agent.uncommitted_cores for p in active}
        left = sum(free.values())
        for unit in eligible:
            if not left:
                break  # unit cores >= 1: no later unit can fit either
            for pilot in active:
                if free[pilot.uid] >= unit.cores:
                    free[pilot.uid] -= unit.cores
                    left -= unit.cores
                    out.append((unit, pilot))
                    break
        return out


class RoundRobinScheduler(UnitScheduler):
    """Late binding, capacity-blind: spread units over active pilots."""

    name = "round-robin"
    early_binding = False

    def __init__(self) -> None:
        self._rr = itertools.count()

    def assign(self, eligible, pilots):
        active = [
            p for p in pilots
            if p.is_active and p.agent is not None and not p.agent.stopped
        ]
        active.sort(key=lambda p: (p.activated_at, p.uid))
        if not active:
            return []
        out = []
        for unit in eligible:
            fitting = [p for p in active if p.cores >= unit.cores]
            if not fitting:
                continue  # wait for a pilot the unit can ever fit in
            pilot = fitting[next(self._rr) % len(fitting)]
            out.append((unit, pilot))
        return out


class LocalityScheduler(UnitScheduler):
    """Late binding with data locality: prefer pilots whose site already
    holds the unit's inputs.

    Compute/data affinity at the unit level (paper §V): among active
    pilots with uncommitted cores, a unit goes to the one whose site has
    the most of its input files resident (ties broken by activation
    order, the backfill default). Avoids re-staging when outputs of an
    earlier stage already live where the next stage could run.

    The unit manager that resolves the registry name ``"locality"``
    injects its network, whose site filesystems hold the files.
    """

    name = "locality"
    early_binding = False
    network = None

    def _resident_inputs(self, unit: ComputeUnit, site: str) -> int:
        if self.network is None:
            return 0
        fs = self.network.fs(site)
        return sum(
            1 for f in unit.description.input_staging if fs.exists(f)
        )

    def assign(self, eligible, pilots):
        active = [
            p for p in pilots
            if p.is_active and p.agent is not None and not p.agent.stopped
        ]
        active.sort(key=lambda p: (p.activated_at, p.uid))
        out = []
        free = {p.uid: p.agent.uncommitted_cores for p in active}
        left = sum(free.values())
        for unit in eligible:
            if not left:
                break  # unit cores >= 1: no later unit can fit either
            fitting = [p for p in active if free[p.uid] >= unit.cores]
            if not fitting:
                continue
            best = max(
                fitting,
                key=lambda p: self._resident_inputs(unit, p.resource),
            )
            free[best.uid] -= unit.cores
            left -= unit.cores
            out.append((unit, best))
        return out


UNIT_SCHEDULERS = {
    cls.name: cls
    for cls in (
        DirectScheduler,
        BackfillScheduler,
        RoundRobinScheduler,
        LocalityScheduler,
    )
}


def make_unit_scheduler(name: str) -> UnitScheduler:
    """Instantiate a unit scheduling policy by name."""
    try:
        return UNIT_SCHEDULERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown unit scheduler {name!r}; known: {sorted(UNIT_SCHEDULERS)}"
        ) from None
