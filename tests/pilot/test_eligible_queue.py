"""The unit manager's eligible queue against a from-scratch rebuild.

Late binding keeps an ordered eligible queue that changes only when a
unit enters or leaves the unbound pool or its last dependency resolves.
Every binding pass here is checked against the eligible list rebuilt
from public state — unbound units in the order they (re)entered the
pool, read from the telemetry hub's unit state spans, whose
dependencies are all DONE — and against a binding walk that visits
every eligible unit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pilot import (
    ComputePilotDescription,
    ComputeUnitDescription,
    UnitManager,
    UnitState,
)
from repro.pilot.schedulers import BackfillScheduler

from .conftest import Substrate


def _full_walk(eligible, pilots):
    """Backfill binding that walks every eligible unit (no early stop)."""
    active = sorted(
        (p for p in pilots
         if p.is_active and p.agent is not None and not p.agent.stopped),
        key=lambda p: (p.activated_at, p.uid),
    )
    free = {p.uid: p.agent.uncommitted_cores for p in active}
    out = []
    for unit in eligible:
        for pilot in active:
            if free[pilot.uid] >= unit.cores:
                free[pilot.uid] -= unit.cores
                out.append((unit, pilot))
                break
    return out


class _Reference:
    """Entry log of the pool, read from the telemetry hub's unit state
    spans: a unit enters the pool each time it becomes UNSCHEDULED."""

    def __init__(self, depends_on, hub):
        self.depends_on = depends_on
        self.hub = hub
        self.units = {}
        self.entry = {}  # uid -> sid of its latest UNSCHEDULED span
        self._read = 0

    def entered(self, units):
        for unit in units:
            self.units[unit.name] = unit

    def eligible(self):
        """Unbound units with every dependency DONE, in the order of
        their latest entry into the pool."""
        spans = self.hub.spans
        for span in spans[self._read:]:
            if span.category == "unit" and span.name == "UNSCHEDULED":
                self.entry[span.track] = span.sid
        self._read = len(spans)
        done = {
            name for name, u in self.units.items()
            if u.state is UnitState.DONE
        }
        return [
            u for u in sorted(
                (u for u in self.units.values()
                 if u.state is UnitState.UNSCHEDULED),
                key=lambda u: self.entry[u.uid],
            )
            if all(d in done for d in self.depends_on.get(u.name, ()))
        ]


class _CheckedBackfill(BackfillScheduler):
    def __init__(self, reference):
        self.reference = reference

    def assign(self, eligible, pilots):
        assert list(eligible) == self.reference.eligible()
        out = super().assign(eligible, pilots)
        assert out == _full_walk(eligible, pilots)
        return out


_units = st.lists(
    st.tuples(
        st.integers(1, 4),  # cores
        st.integers(10, 400),  # duration
        st.lists(st.integers(0, 30), max_size=3),  # deps (earlier only)
        st.integers(0, 2),  # max restarts
    ),
    min_size=1,
    max_size=24,
)
_pilots = st.lists(
    st.tuples(
        st.integers(4, 12),  # cores
        st.integers(2, 12),  # runtime in minutes: deaths mid-run
        st.integers(0, 900),  # submit time
    ),
    min_size=1,
    max_size=4,
)
_events = st.lists(
    st.tuples(
        st.sampled_from(["cancel-unit", "cancel-pilot"]),
        st.integers(0, 63),
        st.integers(0, 1500),
    ),
    max_size=6,
)


@settings(max_examples=120, deadline=None)
@given(
    units=_units, pilots=_pilots, events=_events,
    batches=st.integers(1, 3),
)
def test_binding_matches_a_rebuilt_eligible_list(
    units, pilots, events, batches
):
    sub = Substrate(seed=3)
    sim = sub.sim
    depends_on = {
        f"u{i}": sorted({f"u{d % i}" for d in deps}) if i else []
        for i, (_c, _d, deps, _r) in enumerate(units)
    }
    sim.telemetry.enable()
    reference = _Reference(depends_on, sim.telemetry)
    um = UnitManager(sim, sub.network, scheduler=_CheckedBackfill(reference))
    descs = [
        ComputeUnitDescription(
            name=f"u{i}", duration_s=float(duration), cores=cores,
            max_restarts=restarts,
        )
        for i, (cores, duration, _deps, restarts) in enumerate(units)
    ]
    submitted = []

    def submit(batch):
        new = um.submit_units(batch, depends_on=depends_on)
        reference.entered(new)
        submitted.extend(new)

    step = -(-len(descs) // batches)
    for b in range(batches):
        sim.call_at(float(300 * b), submit, descs[b * step:(b + 1) * step])
    handles = []

    def launch(cores, runtime_min):
        new = sub.pilot_manager.submit_pilots(ComputePilotDescription(
            resource=("resA", "resB")[len(handles) % 2],
            cores=cores, runtime_min=runtime_min,
        ))
        handles.extend(new)
        um.add_pilots(new)

    for cores, runtime_min, at in pilots:
        sim.call_at(float(at), launch, cores, runtime_min)

    def event(kind, index):
        if kind == "cancel-unit" and submitted:
            um.cancel_units([submitted[index % len(submitted)]])
        elif kind == "cancel-pilot" and handles:
            sub.pilot_manager.cancel_pilots([handles[index % len(handles)]])

    for kind, index, at in events:
        sim.call_at(float(at), event, kind, index)
    sim.run(until=20_000)
    assert list(um._eligible) == reference.eligible()


def test_a_resolved_unit_rejoins_at_its_submission_position(substrate):
    """A unit whose dependency resolves binds ahead of units submitted
    after it, even though they were eligible first."""
    um = substrate.unit_manager("backfill")
    units = um.submit_units(
        [ComputeUnitDescription(name=n, duration_s=100.0)
         for n in ("prod", "cons", "late1", "late2")],
        depends_on={"cons": ["prod"]},
    )
    assert um._eligible == [units[0], units[2], units[3]]
    # One core: prod runs, then cons must bind before late1 and late2.
    pilots = substrate.pilot_manager.submit_pilots(ComputePilotDescription(
        resource="resA", cores=1, runtime_min=60,
    ))
    um.add_pilots(pilots)
    substrate.sim.run()
    started = sorted(units, key=lambda u: u.history.timestamp("SCHEDULING"))
    assert [u.name for u in started] == ["prod", "cons", "late1", "late2"]


def test_a_repeated_name_is_rejected(substrate):
    """Dependencies are kept per name, so a name is submitted once: a
    batch repeating a name already in the manager, or within itself, is
    refused whole."""
    um = substrate.unit_manager("backfill")
    first, late = um.submit_units([
        ComputeUnitDescription(name="x", duration_s=10.0),
        ComputeUnitDescription(name="y", duration_s=10.0),
    ])
    for batch in (["p", "x"], ["p", "p"]):
        with pytest.raises(ValueError, match="submitted twice"):
            um.submit_units(
                [ComputeUnitDescription(name=n, duration_s=10.0)
                 for n in batch],
            )
    assert um.units == [first, late]
    assert um._eligible == [first, late]
