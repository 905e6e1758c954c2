"""Unit tests for the pilot agent's bookkeeping."""

import pytest

from repro.des import Simulation
from repro.pilot import (
    Agent,
    AgentError,
    ComputePilot,
    ComputePilotDescription,
    ComputeUnit,
    ComputeUnitDescription,
)


@pytest.fixture
def agent():
    sim = Simulation()
    pilot = ComputePilot(
        sim, ComputePilotDescription(resource="r", cores=8, runtime_min=60)
    )
    return Agent(sim, pilot, site="r")


def unit(sim, cores=1):
    return ComputeUnit(
        sim, ComputeUnitDescription(name=f"u{cores}", duration_s=1, cores=cores)
    )


def test_initial_state(agent):
    assert agent.cores == 8
    assert agent.uncommitted_cores == 8
    assert len(agent._bound_units) == 0
    assert not agent.stopped


def test_commit_uncommit_cycle(agent):
    u = unit(agent.sim, cores=3)
    agent.commit(u)
    assert agent.committed_cores == 3
    assert agent.uncommitted_cores == 5
    assert len(agent._bound_units) == 1
    agent.uncommit(u, completed=True)
    assert agent.committed_cores == 0
    assert agent.units_completed == 1


def test_double_commit_rejected(agent):
    u = unit(agent.sim)
    agent.commit(u)
    with pytest.raises(AgentError):
        agent.commit(u)


def test_uncommit_is_idempotent(agent):
    u = unit(agent.sim)
    agent.commit(u)
    agent.uncommit(u, completed=False)
    agent.uncommit(u, completed=False)  # no error, no double count
    assert agent.committed_cores == 0
    assert agent.units_completed == 0


def test_overcommit_clamps_uncommitted_to_zero(agent):
    """Capacity-blind schedulers may commit beyond capacity."""
    for i in range(3):
        agent.commit(unit(agent.sim, cores=4))
    assert agent.committed_cores == 12
    assert agent.uncommitted_cores == 0  # not negative


def test_commit_after_stop_rejected(agent):
    agent.stop()
    with pytest.raises(AgentError):
        agent.commit(unit(agent.sim))


def test_launch_slots_serialize(agent):
    # agent launch_rate is 20/s -> slots 0.05 s apart
    delays = [agent.reserve_launch_slot() for _ in range(4)]
    assert delays[0] == 0.0
    assert delays[1] == pytest.approx(0.05)
    assert delays[2] == pytest.approx(0.10)
    assert delays[3] == pytest.approx(0.15)


def test_launch_slots_respect_elapsed_time(agent):
    agent.reserve_launch_slot()
    agent.sim.call_in(10.0, lambda: None)
    agent.sim.run()
    # cursor is far in the past: the next slot is immediate
    assert agent.reserve_launch_slot() == 0.0
