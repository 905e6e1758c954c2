"""Tests for the pilot/unit state tables, the one transition check, and
state histories."""

import pytest

from repro.cluster import Cluster
from repro.des import Simulation
from repro.lifecycle import PILOT_TABLE, UNIT_TABLE
from repro.pilot import (
    ComputePilot,
    ComputePilotDescription,
    IllegalTransition,
    PILOT_FINAL,
    PilotManager,
    PilotState,
    StateHistory,
    UNIT_FINAL,
    UnitState,
    check_transition,
)
from repro.telemetry import COMPONENTS

MACHINES = (
    (PilotState, PILOT_TABLE, PILOT_FINAL),
    (UnitState, UNIT_TABLE, UNIT_FINAL),
)

ALL_PAIRS = [
    pytest.param(table, old, new, id=f"{machine.__name__}-{old.value}-{new.value}")
    for machine, table, _ in MACHINES
    for old in machine
    for new in machine
]


@pytest.mark.parametrize("table, old, new", ALL_PAIRS)
def test_every_pair_is_checked_against_its_table(table, old, new):
    if new in table[old].successors:
        check_transition(old, new)
    else:
        with pytest.raises(IllegalTransition):
            check_transition(old, new)


def test_tables_cover_every_state():
    for machine, table, _ in MACHINES:
        assert set(table) == set(machine)
        for row in table.values():
            assert all(isinstance(s, machine) for s in row.successors)


def test_nominal_unit_path_legal():
    unit_path = [
        UnitState.NEW,
        UnitState.UNSCHEDULED,
        UnitState.SCHEDULING,
        UnitState.STAGING_INPUT,
        UnitState.PENDING_EXECUTION,
        UnitState.EXECUTING,
        UnitState.STAGING_OUTPUT,
        UnitState.DONE,
    ]
    pilot_path = [
        PilotState.NEW,
        PilotState.LAUNCHING,
        PilotState.PENDING_ACTIVE,
        PilotState.ACTIVE,
        PilotState.DONE,
    ]
    for path in (unit_path, pilot_path):
        for old, new in zip(path, path[1:]):
            check_transition(old, new)


def test_failed_reachable_from_any_nonfinal():
    for machine, _, final in MACHINES:
        for state in machine:
            if state not in final:
                check_transition(state, machine.CANCELED)
                # a pilot can only fail once it has been submitted
                if state is not PilotState.NEW:
                    check_transition(state, machine.FAILED)
    with pytest.raises(IllegalTransition):
        check_transition(PilotState.NEW, PilotState.FAILED)


def test_failed_not_reachable_from_final():
    for machine, _, final in MACHINES:
        for state in final:
            with pytest.raises(IllegalTransition):
                check_transition(state, machine.FAILED)
    # only the unit restart leaves a final state
    leaving = {
        state: row.successors
        for _, table, final in MACHINES
        for state, row in table.items()
        if state in final and row.successors
    }
    assert leaving == {UnitState.FAILED: {UnitState.UNSCHEDULED}}


def test_restart_transition_allowed():
    check_transition(UnitState.FAILED, UnitState.UNSCHEDULED)


def test_skipping_states_rejected():
    for old, new in (
        (UnitState.NEW, UnitState.EXECUTING),
        (UnitState.STAGING_INPUT, UnitState.EXECUTING),
        (UnitState.DONE, UnitState.UNSCHEDULED),
        (PilotState.NEW, PilotState.ACTIVE),
        (PilotState.LAUNCHING, PilotState.DONE),
        (PilotState.ACTIVE, PilotState.PENDING_ACTIVE),
    ):
        with pytest.raises(IllegalTransition):
            check_transition(old, new)


def test_unit_states_name_their_activity_and_component():
    timed = {
        state: (row.activity, row.component)
        for state, row in UNIT_TABLE.items()
        if row.activity is not None
    }
    assert set(timed) == set(UnitState) - {
        UnitState.NEW, UnitState.DONE, UnitState.CANCELED,
    }
    assert timed[UnitState.EXECUTING] == ("executing", "tx")
    assert {c for _, c in timed.values()} <= set(COMPONENTS)
    # non-timed states (and pilot rows) carry no component
    for row in PILOT_TABLE.values():
        assert row.activity is None and row.component is None


def test_tables_answer_lookups_by_history_string():
    for machine, table, _ in MACHINES:
        for state in machine:
            assert table[state.value] is table[state]


def _pilot():
    sim = Simulation(seed=0)
    return ComputePilot(
        sim, ComputePilotDescription(resource="r", cores=1, runtime_min=1)
    )


def test_illegal_pilot_advance_raises():
    pilot = _pilot()
    with pytest.raises(IllegalTransition):
        pilot.advance(PilotState.ACTIVE)  # NEW -> ACTIVE skips submission
    assert pilot.state is PilotState.NEW
    assert [s for s, _ in pilot.history.as_list()] == ["NEW"]


def test_final_pilot_ignores_late_echo():
    pilot = _pilot()
    pilot.advance(PilotState.LAUNCHING)
    pilot.advance(PilotState.CANCELED)
    pilot.advance(PilotState.PENDING_ACTIVE)  # the SAGA job's late echo
    assert pilot.state is PilotState.CANCELED
    assert [s for s, _ in pilot.history.as_list()] == [
        "NEW", "LAUNCHING", "CANCELED",
    ]


def test_pilot_ending_during_bootstrap_goes_pending_active_to_done():
    sim = Simulation(seed=0)
    cluster = Cluster(sim, "r", nodes=1, cores_per_node=8)
    manager = PilotManager(sim, {"r": cluster}, bootstrap_s=120.0)
    (pilot,) = manager.submit_pilots(
        ComputePilotDescription(resource="r", cores=8, runtime_min=1)
    )
    sim.run()
    assert [s for s, _ in pilot.history.as_list()] == [
        "NEW", "LAUNCHING", "PENDING_ACTIVE", "DONE",
    ]


def test_state_history_queries():
    h = StateHistory()
    h.append("NEW", 0.0)
    h.append("ACTIVE", 10.0)
    h.append("ACTIVE", 20.0)  # re-entry
    assert h.timestamp("NEW") == 0.0
    assert h.timestamp("ACTIVE") == 10.0
    assert h.timestamp("MISSING") is None
    assert h.as_list() == [("NEW", 0.0), ("ACTIVE", 10.0), ("ACTIVE", 20.0)]
