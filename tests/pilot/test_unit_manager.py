"""Tests for unit binding, execution, staging, restarts, and dependencies."""

import pytest

from repro.net import ORIGIN
from repro.pilot import (
    ComputePilotDescription,
    ComputeUnitDescription,
    UnitState,
)


def pilot_desc(resource="resA", cores=16, runtime_min=120):
    return ComputePilotDescription(
        resource=resource, cores=cores, runtime_min=runtime_min,
    )


def unit_desc(name, duration=100.0, cores=1, inputs=(), outputs=(), max_restarts=3):
    return ComputeUnitDescription(
        name=name, duration_s=duration, cores=cores,
        input_staging=tuple(inputs), output_staging=tuple(outputs),
        max_restarts=max_restarts,
    )


def test_unit_description_validation():
    with pytest.raises(ValueError):
        ComputeUnitDescription(name="u", duration_s=-1)
    with pytest.raises(ValueError):
        ComputeUnitDescription(name="u", duration_s=1, cores=0)
    with pytest.raises(ValueError):
        ComputeUnitDescription(name="u", duration_s=1, max_restarts=-1)


def test_simple_unit_executes(substrate):
    um = substrate.unit_manager("backfill")
    pilots = substrate.pilot_manager.submit_pilots(pilot_desc())
    um.add_pilots(pilots)
    (unit,) = um.submit_units(unit_desc("t0", duration=300))
    substrate.sim.run()
    assert unit.state is UnitState.DONE
    h = unit.history
    assert h.timestamp("STAGING_OUTPUT") - h.timestamp("EXECUTING") == pytest.approx(300)
    states = [s for s, _ in h.as_list()]
    assert states == [
        "NEW", "UNSCHEDULED", "SCHEDULING", "STAGING_INPUT",
        "PENDING_EXECUTION", "EXECUTING", "STAGING_OUTPUT", "DONE",
    ]


def test_late_binding_waits_for_active_pilot(substrate):
    um = substrate.unit_manager("backfill")
    (unit,) = um.submit_units(unit_desc("t0"))
    substrate.sim.run(until=10)
    assert unit.state is UnitState.UNSCHEDULED  # no pilot yet
    pilots = substrate.pilot_manager.submit_pilots(pilot_desc())
    um.add_pilots(pilots)
    substrate.sim.run()
    assert unit.state is UnitState.DONE


def test_early_binding_binds_before_activation(substrate):
    um = substrate.unit_manager("direct")
    pilots = substrate.pilot_manager.submit_pilots(
        pilot_desc(cores=64, runtime_min=30)
    )
    # resA jammed by the first pilot; second pilot queues behind it.
    queued = substrate.pilot_manager.submit_pilots(
        pilot_desc(cores=64, runtime_min=60)
    )
    um.add_pilots(queued)
    (unit,) = um.submit_units(unit_desc("t0"))
    substrate.sim.run(until=60)
    # bound (SCHEDULING) even though its pilot is still queued
    assert unit.state is UnitState.SCHEDULING
    assert unit.pilot is queued[0]
    substrate.sim.run()
    assert unit.state is UnitState.DONE


def test_input_staging_moves_files(substrate):
    um = substrate.unit_manager("backfill")
    substrate.network.fs(ORIGIN).write("in.dat", 1_000_000, now=0)
    pilots = substrate.pilot_manager.submit_pilots(pilot_desc())
    um.add_pilots(pilots)
    (unit,) = um.submit_units(
        unit_desc("t0", inputs=["in.dat"], outputs=[("out.dat", 2000)])
    )
    substrate.sim.run()
    assert unit.state is UnitState.DONE
    assert substrate.network.fs("resA").exists("in.dat")
    assert substrate.network.fs("resA").exists("out.dat")
    assert substrate.network.fs(ORIGIN).exists("out.dat")
    # staging took real simulated time
    h = unit.history
    assert h.timestamp("PENDING_EXECUTION") > h.timestamp("STAGING_INPUT")


def test_input_already_at_site_not_restaged(substrate):
    um = substrate.unit_manager("backfill")
    substrate.network.fs(ORIGIN).write("in.dat", 1_000_000, now=0)
    substrate.network.fs("resA").write("in.dat", 1_000_000, now=0)
    pilots = substrate.pilot_manager.submit_pilots(pilot_desc())
    um.add_pilots(pilots)
    (unit,) = um.submit_units(unit_desc("t0", inputs=["in.dat"]))
    substrate.sim.run()
    assert substrate.network.link_to("resA").completed_transfers == 0


def test_units_share_pilot_cores(substrate):
    """More units than cores: execution serializes on the agent."""
    um = substrate.unit_manager("backfill")
    pilots = substrate.pilot_manager.submit_pilots(pilot_desc(cores=2))
    um.add_pilots(pilots)
    units = um.submit_units([unit_desc(f"t{i}", duration=100) for i in range(6)])
    substrate.sim.run()
    assert all(u.state is UnitState.DONE for u in units)
    # 6 tasks x 100 s on 2 cores = 3 waves
    ends = sorted(u.history.timestamp("DONE") for u in units)
    span = ends[-1] - pilots[0].activated_at
    assert span >= 300


def test_backfill_prefers_earliest_active_pilot(substrate):
    um = substrate.unit_manager("backfill")
    # resB pilot activates immediately; resA pilot is behind a blocker.
    blocker = substrate.pilot_manager.submit_pilots(
        pilot_desc(resource="resA", cores=64, runtime_min=60)
    )
    pilots = substrate.pilot_manager.submit_pilots([
        pilot_desc(resource="resA", cores=8, runtime_min=120),
        pilot_desc(resource="resB", cores=8, runtime_min=120),
    ])
    um.add_pilots(pilots)
    units = um.submit_units([unit_desc(f"t{i}", duration=50) for i in range(4)])
    substrate.sim.run(until=600)
    assert all(u.state is UnitState.DONE for u in units)
    assert all(u.pilot.resource == "resB" for u in units)


def test_round_robin_spreads_units(substrate):
    um = substrate.unit_manager("round-robin")
    pilots = substrate.pilot_manager.submit_pilots([
        pilot_desc(resource="resA", cores=8),
        pilot_desc(resource="resB", cores=8),
    ])
    um.add_pilots(pilots)
    substrate.sim.run(until=30)  # both active
    units = um.submit_units([unit_desc(f"t{i}", duration=50) for i in range(8)])
    substrate.sim.run()
    by_resource = {"resA": 0, "resB": 0}
    for u in units:
        by_resource[u.pilot.resource] += 1
    assert by_resource["resA"] == 4
    assert by_resource["resB"] == 4


def test_unit_restarts_when_pilot_dies(substrate):
    um = substrate.unit_manager("backfill")
    # short-walltime pilot dies mid-task; longer pilot on resB survives.
    doomed = substrate.pilot_manager.submit_pilots(
        pilot_desc(resource="resA", cores=16, runtime_min=5)
    )
    um.add_pilots(doomed)
    (unit,) = um.submit_units(unit_desc("t0", duration=600))
    substrate.sim.run(until=200)
    assert unit.state is UnitState.EXECUTING
    substrate.sim.run(until=400)  # pilot walltime (300 s) has passed
    assert unit.restarts == 1
    assert unit.state is UnitState.UNSCHEDULED  # requeued, waiting
    survivor = substrate.pilot_manager.submit_pilots(
        pilot_desc(resource="resB", cores=16, runtime_min=60)
    )
    um.add_pilots(survivor)
    substrate.sim.run()
    assert unit.state is UnitState.DONE
    assert unit.pilot is survivor[0]


def test_unit_fails_permanently_after_max_restarts(substrate):
    um = substrate.unit_manager("backfill")
    (unit,) = um.submit_units(unit_desc("t0", duration=600, max_restarts=1))
    for _ in range(3):
        doomed = substrate.pilot_manager.submit_pilots(
            pilot_desc(resource="resA", cores=16, runtime_min=5)
        )
        um.add_pilots(doomed)
        substrate.sim.run(until=substrate.sim.now + 1200)
    assert unit.state is UnitState.FAILED
    assert unit.is_final
    assert not unit.can_restart


def test_cancel_units(substrate):
    um = substrate.unit_manager("backfill")
    pilots = substrate.pilot_manager.submit_pilots(pilot_desc(cores=1))
    um.add_pilots(pilots)
    units = um.submit_units([unit_desc(f"t{i}", duration=500) for i in range(3)])
    substrate.sim.run(until=100)
    um.cancel_units()
    substrate.sim.run(until=200)
    assert all(u.state is UnitState.CANCELED for u in units)
    # agent cores all released
    assert pilots[0].agent.capacity.available == 1


def test_dependencies_hold_units(substrate):
    um = substrate.unit_manager("backfill")
    pilots = substrate.pilot_manager.submit_pilots(pilot_desc())
    um.add_pilots(pilots)
    producer = unit_desc("prod", duration=200, outputs=[("inter.dat", 500)])
    consumer = unit_desc("cons", duration=100, inputs=["inter.dat"])
    units = um.submit_units(
        [producer, consumer], depends_on={"cons": ["prod"]}
    )
    substrate.sim.run(until=100)
    assert units[0].state is UnitState.EXECUTING
    assert units[1].state is UnitState.UNSCHEDULED  # held by dependency
    substrate.sim.run()
    assert units[1].state is UnitState.DONE
    t_prod_done = units[0].history.timestamp("DONE")
    t_cons_start = units[1].history.timestamp("SCHEDULING")
    assert t_cons_start >= t_prod_done


def test_wait_units_waitable(substrate):
    um = substrate.unit_manager("backfill")
    pilots = substrate.pilot_manager.submit_pilots(pilot_desc())
    um.add_pilots(pilots)
    units = um.submit_units([unit_desc(f"t{i}", duration=100) for i in range(3)])
    got = []

    def waiter():
        yield um.wait_units(units)
        got.append(substrate.sim.now)

    substrate.sim.process(waiter())
    substrate.sim.run()
    assert len(got) == 1
    assert got[0] >= 100
    assert um.completed_units == 3


def test_trace_contains_full_unit_lifecycle(substrate):
    um = substrate.unit_manager("backfill")
    pilots = substrate.pilot_manager.submit_pilots(pilot_desc())
    um.add_pilots(pilots)
    (unit,) = um.submit_units(unit_desc("t0", duration=100))
    substrate.sim.run()
    events = [state for state, _ in unit.history.as_list()]
    assert events[0] == "NEW"
    assert events[-1] == "DONE"
    assert "EXECUTING" in events


def test_unit_wider_than_pilot_fails_fast_and_restarts(substrate):
    """A capacity-blind binding onto a too-small pilot must not deadlock."""
    um = substrate.unit_manager("round-robin")
    small = substrate.pilot_manager.submit_pilots(
        pilot_desc(resource="resA", cores=2)
    )
    um.add_pilots(small)
    substrate.sim.run(until=30)  # small pilot active
    (unit,) = um.submit_units(unit_desc("wide", duration=100, cores=4))
    substrate.sim.run(until=120)
    # never bound to the too-small pilot, and never burned restarts on it
    assert unit.restarts == 0
    assert unit.state is UnitState.UNSCHEDULED
    big = substrate.pilot_manager.submit_pilots(
        pilot_desc(resource="resB", cores=8)
    )
    um.add_pilots(big)
    substrate.sim.run()
    assert unit.state is UnitState.DONE
    assert unit.pilot is big[0]


def test_locality_scheduler_prefers_site_with_inputs(substrate):
    """Data/compute affinity: a unit whose input already sits at resB
    is bound there even though resA's pilot activated first."""
    um = substrate.unit_manager("locality")
    pilots = substrate.pilot_manager.submit_pilots([
        pilot_desc(resource="resA", cores=8),
        pilot_desc(resource="resB", cores=8),
    ])
    um.add_pilots(pilots)
    substrate.sim.run(until=30)  # both active; resA first (submitted first)
    substrate.network.fs(ORIGIN).write("hot.dat", 1_000_000, now=0)
    substrate.network.fs("resB").write("hot.dat", 1_000_000, now=0)
    (unit,) = um.submit_units(unit_desc("t0", inputs=["hot.dat"]))
    substrate.sim.run()
    assert unit.state is UnitState.DONE
    assert unit.pilot.resource == "resB"
    # and nothing was re-staged over the WAN
    assert substrate.network.link_to("resB").completed_transfers == 0


def test_locality_scheduler_falls_back_to_activation_order(substrate):
    """Without resident inputs anywhere, locality behaves like backfill."""
    um = substrate.unit_manager("locality")
    pilots = substrate.pilot_manager.submit_pilots([
        pilot_desc(resource="resA", cores=8),
        pilot_desc(resource="resB", cores=8),
    ])
    um.add_pilots(pilots)
    substrate.sim.run(until=30)
    units = um.submit_units([unit_desc(f"t{i}", duration=50) for i in range(4)])
    substrate.sim.run()
    assert all(u.state is UnitState.DONE for u in units)
    # 4 one-core units fit in resA's 8 free cores: earliest-active wins
    assert all(u.pilot.resource == "resA" for u in units)
