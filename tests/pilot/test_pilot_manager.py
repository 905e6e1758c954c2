"""Tests for pilot launching, activation, and cancellation."""

import pytest

from repro.pilot import (
    ComputePilotDescription,
    PilotManagerError,
    PilotState,
)


def desc(resource="resA", cores=16, runtime_min=60, schema="slurm"):
    return ComputePilotDescription(
        resource=resource, cores=cores, runtime_min=runtime_min,
        access_schema=schema,
    )


def test_description_validation():
    with pytest.raises(ValueError):
        ComputePilotDescription(resource="r", cores=0, runtime_min=10)
    with pytest.raises(ValueError):
        ComputePilotDescription(resource="r", cores=1, runtime_min=0)
    d = desc(runtime_min=30)
    assert d.runtime_s == 1800.0


def test_unknown_resource_rejected(substrate):
    with pytest.raises(PilotManagerError):
        substrate.pilot_manager.submit_pilots(desc(resource="nowhere"))


def test_pilot_activates_on_idle_machine(substrate):
    (pilot,) = substrate.pilot_manager.submit_pilots(desc())
    assert pilot.state is PilotState.LAUNCHING
    substrate.sim.run(until=60)
    assert pilot.state is PilotState.ACTIVE
    assert pilot.agent is not None
    assert pilot.agent.cores == 16
    assert pilot.queue_wait is not None and pilot.queue_wait < 10


def test_pilot_history_timestamps_ordered(substrate):
    (pilot,) = substrate.pilot_manager.submit_pilots(desc())
    substrate.sim.run(until=60)
    states = [s for s, _ in pilot.history.as_list()]
    assert states == ["NEW", "LAUNCHING", "PENDING_ACTIVE", "ACTIVE"]
    times = [t for _, t in pilot.history.as_list()]
    assert times == sorted(times)


def test_pilot_dies_at_walltime(substrate):
    (pilot,) = substrate.pilot_manager.submit_pilots(desc(runtime_min=10))
    substrate.sim.run()
    assert pilot.is_final
    assert pilot.state is PilotState.DONE  # clean end at walltime
    assert pilot.agent.stopped
    # activated ~immediately, ended at walltime
    assert pilot.history.timestamp("DONE") == pytest.approx(
        pilot.activated_at + 600, abs=5
    )


def test_cancel_active_pilot(substrate):
    (pilot,) = substrate.pilot_manager.submit_pilots(desc(runtime_min=600))
    substrate.sim.run(until=100)
    assert pilot.is_active
    substrate.pilot_manager.cancel_pilots([pilot])
    substrate.sim.run(until=200)
    assert pilot.state is PilotState.CANCELED
    assert pilot.agent.stopped
    # the placeholder job must have released the resource
    assert substrate.clusters["resA"].free_cores == 64


def test_cancel_all_defaults(substrate):
    pilots = substrate.pilot_manager.submit_pilots(
        [desc(), desc(resource="resB")]
    )
    substrate.sim.run(until=50)
    substrate.pilot_manager.cancel_pilots()
    substrate.sim.run(until=100)
    assert all(p.state is PilotState.CANCELED for p in pilots)


def test_wait_active_fires_on_the_free_resource_first(substrate):
    # resA is blocked by a fat pilot; resB is free.
    blocker = desc(resource="resA", cores=64, runtime_min=60)
    substrate.pilot_manager.submit_pilots(blocker)
    substrate.sim.run(until=5)
    pilots = substrate.pilot_manager.submit_pilots(
        [desc(resource="resA", cores=64), desc(resource="resB", cores=16)]
    )
    got = []

    def waiter(pilot):
        value = yield pilot.wait_active()
        got.append(value.resource)

    for pilot in pilots:
        substrate.sim.process(waiter(pilot))
    substrate.sim.run(until=600)
    assert got == ["resB"]


def test_pilot_waits_in_queue_behind_load(substrate):
    # Fill resA with a 64-core pilot, then submit another: it must queue.
    first, second = substrate.pilot_manager.submit_pilots(
        [desc(cores=64, runtime_min=30), desc(cores=64, runtime_min=30)]
    )
    substrate.sim.run(until=60)
    assert first.state is PilotState.ACTIVE
    assert second.state is PilotState.PENDING_ACTIVE
    substrate.sim.run()
    assert second.queue_wait == pytest.approx(30 * 60, abs=10)


def test_access_schema_dialects(substrate):
    (pbs_pilot,) = substrate.pilot_manager.submit_pilots(
        desc(cores=10, schema="pbs")
    )
    substrate.sim.run(until=60)
    # PBS rounds to whole nodes: 10 cores -> 16
    assert pbs_pilot.saga_job.native.cores == 16
    # but the agent's capacity is what was *described*
    assert pbs_pilot.agent.cores == 10
