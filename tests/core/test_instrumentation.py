"""Unit tests for the TTC decomposition on hand-driven executions."""

import math
from types import SimpleNamespace

import pytest

from repro.core import decompose
from repro.core.instrumentation import IntrospectionError
from repro.des import Simulation
from repro.pilot import (
    ComputePilot,
    ComputePilotDescription,
    ComputeUnit,
    ComputeUnitDescription,
    PilotState,
    UnitState,
)
from repro.telemetry import build_graph


def decomp(pilots, units, t_start, t_end):
    """Build the execution's causal graph, then decompose it."""
    graph = build_graph(pilots, units, t_start, t_end)
    return decompose(graph, pilots, units)


def make_pilot(sim, resource="r", submit_at=0.0, active_at=None):
    p = ComputePilot(
        sim, ComputePilotDescription(resource=resource, cores=8, runtime_min=60)
    )
    sim.call_at(submit_at, p.advance, PilotState.LAUNCHING)
    if active_at is not None:
        sim.call_at(active_at, p.advance, PilotState.PENDING_ACTIVE)
        sim.call_at(active_at, p.advance, PilotState.ACTIVE)
    return p


def make_unit(sim, name, schedule):
    """Drive a unit through (state, time) pairs."""
    u = ComputeUnit(sim, ComputeUnitDescription(name=name, duration_s=1))
    for state, t in schedule:
        sim.call_at(t, u.advance, state)
    return u


def full_unit(sim, name, t0):
    """A unit staging 10 s, executing 100 s, staging out 5 s from t0."""
    return make_unit(sim, name, [
        (UnitState.UNSCHEDULED, t0),
        (UnitState.SCHEDULING, t0),
        (UnitState.STAGING_INPUT, t0),
        (UnitState.PENDING_EXECUTION, t0 + 10),
        (UnitState.EXECUTING, t0 + 10),
        (UnitState.STAGING_OUTPUT, t0 + 110),
        (UnitState.DONE, t0 + 115),
    ])


def test_single_pilot_single_unit():
    sim = Simulation()
    pilot = make_pilot(sim, submit_at=0.0, active_at=500.0)
    unit = full_unit(sim, "u0", 500.0)
    sim.run()
    d = decomp([pilot], [unit], t_start=0.0, t_end=615.0)
    assert d.ttc == 615.0
    assert d.tw == 500.0
    assert d.tw_last == 500.0
    assert d.tx == 100.0           # EXECUTING span
    assert d.ts == 15.0            # 10 s in + 5 s out
    assert d.units_done == 1
    assert d.units_failed == 0
    assert d.pilot_waits == (500.0,)


def test_overlapping_units_union_semantics():
    sim = Simulation()
    pilot = make_pilot(sim, submit_at=0.0, active_at=100.0)
    u1 = full_unit(sim, "u1", 100.0)   # executes 110..210
    u2 = full_unit(sim, "u2", 150.0)   # executes 160..260
    sim.run()
    d = decomp([pilot], [u1, u2], t_start=0.0, t_end=265.0)
    # Tx is the span of executions, not the sum
    assert d.tx == 150.0           # 110 .. 260
    # Ts is the union: [100,110] + [150,160] + [210,215] + [260,265]
    assert d.ts == pytest.approx(30.0)


def test_multi_pilot_first_and_last_activation():
    sim = Simulation()
    p1 = make_pilot(sim, submit_at=0.0, active_at=200.0)
    p2 = make_pilot(sim, submit_at=0.0, active_at=900.0)
    unit = full_unit(sim, "u", 200.0)
    sim.run()
    d = decomp([p1, p2], [unit], t_start=0.0, t_end=1000.0)
    assert d.tw == 200.0
    assert d.tw_last == 900.0
    assert d.pilot_waits == (200.0, 900.0)


def test_pilot_never_active():
    sim = Simulation()
    p = make_pilot(sim, submit_at=10.0, active_at=None)
    sim.run()
    d = decomp([p], [], t_start=0.0, t_end=500.0)
    assert d.tw == 490.0           # waited the whole run
    assert math.isnan(d.pilot_waits[0])
    assert d.units_done == 0


def test_trp_counts_uncovered_time():
    sim = Simulation()
    # pilot active immediately; unit starts late -> a gap of pure overhead
    pilot = make_pilot(sim, submit_at=0.0, active_at=10.0)
    unit = full_unit(sim, "u", 300.0)
    sim.run()
    d = decomp([pilot], [unit], t_start=0.0, t_end=415.0)
    # covered: Tw [0,10], staging+exec [300,415] -> uncovered 290
    assert d.trp == pytest.approx(290.0)


def test_failed_units_counted():
    sim = Simulation()
    pilot = make_pilot(sim, submit_at=0.0, active_at=10.0)
    failed = make_unit(sim, "f", [
        (UnitState.UNSCHEDULED, 10.0),
        (UnitState.SCHEDULING, 10.0),
        (UnitState.FAILED, 50.0),
    ])
    failed.restarts = 99  # out of restarts
    sim.run()
    d = decomp([pilot], [failed], t_start=0.0, t_end=100.0)
    assert d.units_failed == 1
    assert d.restarts == 99


def test_invalid_window_rejected():
    sim = Simulation()
    pilot = make_pilot(sim, submit_at=0.0, active_at=10.0)
    sim.run()
    with pytest.raises(IntrospectionError):
        decomp([pilot], [], t_start=100.0, t_end=50.0)
    with pytest.raises(IntrospectionError):
        decomp([], [], t_start=0.0, t_end=1.0)


def test_tx_and_ts_per_attempt():
    sim = Simulation()
    pilot = make_pilot(sim, submit_at=0.0, active_at=0.0)
    unit = full_unit(sim, "u", 0.0)
    sim.run()
    d = decomp([pilot], [unit], t_start=0.0, t_end=115.0)
    assert d.tx == 100.0           # EXECUTING 10 .. 110
    assert d.ts == 15.0            # staging in 0 .. 10, out 110 .. 115
    assert d.t_lost == 0.0


def test_unit_that_never_executed_contributes_nothing():
    sim = Simulation()
    pilot = make_pilot(sim, submit_at=0.0, active_at=10.0)
    young = ComputeUnit(sim, ComputeUnitDescription(name="y", duration_s=1))
    sim.run()
    d = decomp([pilot], [young], t_start=0.0, t_end=100.0)
    assert (d.tx, d.ts, d.t_lost) == (0.0, 0.0, 0.0)
    assert d.trp == pytest.approx(90.0)  # all but Tw is uncovered


def test_restarted_units_failed_attempt_is_lost_work():
    sim = Simulation()
    pilot = make_pilot(sim, submit_at=0.0, active_at=0.0)
    unit = make_unit(sim, "r", [
        (UnitState.UNSCHEDULED, 0.0),
        (UnitState.SCHEDULING, 0.0),
        (UnitState.STAGING_INPUT, 0.0),
        (UnitState.PENDING_EXECUTION, 10.0),
        (UnitState.EXECUTING, 10.0),
        (UnitState.FAILED, 110.0),      # the pilot died under it
        (UnitState.UNSCHEDULED, 110.0),
        (UnitState.SCHEDULING, 150.0),
        (UnitState.STAGING_INPUT, 150.0),
        (UnitState.PENDING_EXECUTION, 200.0),
        (UnitState.EXECUTING, 200.0),
        (UnitState.STAGING_OUTPUT, 300.0),
        (UnitState.DONE, 305.0),
    ])
    sim.run()
    d = decomp([pilot], [unit], t_start=0.0, t_end=305.0)
    assert d.tx == 100.0           # the completed attempt only, 200 .. 300
    assert d.t_lost == 100.0       # the failed attempt, 10 .. 110
    assert d.ts == pytest.approx(65.0)  # 10 + 50 in, 5 out


def test_decompose_reads_no_unit_history():
    sim = Simulation()
    pilot = make_pilot(sim, submit_at=0.0, active_at=0.0)
    unit = full_unit(sim, "u", 0.0)
    sim.run()
    graph = build_graph([pilot], [unit], 0.0, 115.0)
    # only the final state and the restart count are read off a unit
    bare = SimpleNamespace(state=unit.state, restarts=unit.restarts)
    assert decompose(graph, [pilot], [bare]) == decompose(
        graph, [pilot], [unit]
    )
