"""UnitWatchdog: hung units are caught and rescheduled, busy ones are not."""

import pytest

from repro.des import Simulation
from repro.health import BreakerPolicy, HealthRegistry, UnitWatchdog
from repro.net import Network, ORIGIN
from repro.cluster import Cluster
from repro.pilot import (
    ComputePilotDescription,
    ComputeUnitDescription,
    PilotManager,
    UnitManager,
    UnitState,
)


def make_stack(sites=("alpha", "beta"), registry=True):
    sim = Simulation(seed=0)
    net = Network(sim)
    clusters = {}
    for name in sites:
        net.add_site(name, bandwidth_bytes_per_s=1e6, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=4, cores_per_node=8,
                                 submit_overhead=1.0)
    reg = (
        HealthRegistry(sim, breaker=BreakerPolicy(failure_threshold=1))
        if registry else None
    )
    pm = PilotManager(sim, clusters, health=reg)
    um = UnitManager(sim, net, scheduler="backfill", health=reg)
    return sim, net, clusters, pm, um, reg


def pilot_desc(resource):
    return ComputePilotDescription(resource=resource, cores=8, runtime_min=120)


def staged_unit(i, size=2e6):
    return ComputeUnitDescription(
        name=f"t{i}", duration_s=60.0, cores=1,
        input_staging=(f"in-{i}.dat",),
    )


def test_watchdog_validation():
    sim = Simulation(seed=0)
    with pytest.raises(ValueError):
        UnitWatchdog(sim, None, [], timeout_s=0.0)


def test_hung_staging_units_are_rescheduled_to_a_healthy_pilot():
    sim, net, clusters, pm, um, reg = make_stack()
    for i in range(4):
        net.fs(ORIGIN).write(f"in-{i}.dat", 2e6, 0.0)
    pilots = pm.submit_pilots([pilot_desc("alpha")])
    um.add_pilots(pilots)
    sim.run(until=30.0)
    assert pilots[0].is_active
    units = um.submit_units([staged_unit(i) for i in range(4)])
    watchdog = UnitWatchdog(sim, um, units, timeout_s=30.0, registry=reg)

    def partition_alpha():
        # full partition mid-staging + the breaker learns about it
        net.link_to("alpha").set_degradation(0.0)
        reg.breaker("alpha").trip("link-partition")
        # the survivor joins after the quarantine, so rebinding has a
        # healthy destination
        replacement = pm.submit_pilots([pilot_desc("beta")])
        um.add_pilots(replacement)

    sim.call_in(0.5, partition_alpha)
    sim.run(until=1200.0)
    assert watchdog.rescheduled >= 1
    assert all(u.state is UnitState.DONE for u in units)
    assert all(u.pilot.resource == "beta" for u in units)
    events = reg.log.of_kind("watchdog-reschedule")
    assert events and events[0].details
    # caught within timeout + one check interval (timeout / 4) of the hang
    assert events[0].time <= 30.5 + 30.0 + 7.5


def test_long_executing_unit_is_not_mistaken_for_a_hang():
    sim, net, clusters, pm, um, reg = make_stack(sites=("alpha",))
    pilots = pm.submit_pilots([pilot_desc("alpha")])
    um.add_pilots(pilots)
    sim.run(until=30.0)
    units = um.submit_units([
        ComputeUnitDescription(name="long", duration_s=500.0, cores=1)
    ])
    watchdog = UnitWatchdog(sim, um, units, timeout_s=30.0, registry=reg)
    sim.run(until=1200.0)
    assert watchdog.rescheduled == 0
    assert units[0].state is UnitState.DONE


def test_unit_waiting_for_cores_is_not_watched():
    """PENDING_EXECUTION means the pilot is full, not that the unit hung."""
    sim, net, clusters, pm, um, reg = make_stack(sites=("alpha",))
    pilots = pm.submit_pilots([pilot_desc("alpha")])
    um.add_pilots(pilots)
    sim.run(until=30.0)
    units = um.submit_units([
        ComputeUnitDescription(name=f"wide-{i}", duration_s=100.0, cores=8)
        for i in range(2)
    ])
    watchdog = UnitWatchdog(sim, um, units, timeout_s=30.0, registry=reg)
    sim.run(until=1200.0)
    # the second unit waited ~100s for cores, far past the timeout
    assert watchdog.rescheduled == 0
    assert all(u.state is UnitState.DONE for u in units)


def test_unit_queued_behind_an_inactive_pilot_is_left_alone():
    sim, net, clusters, pm, um, reg = make_stack(sites=("alpha",))
    clusters["alpha"].set_offline(600.0)  # pilot cannot start yet
    pilots = pm.submit_pilots([pilot_desc("alpha")])
    um.add_pilots(pilots)
    units = um.submit_units([
        ComputeUnitDescription(name="early", duration_s=50.0, cores=1)
    ])
    watchdog = UnitWatchdog(sim, um, units, timeout_s=30.0, registry=reg)
    sim.run(until=300.0)
    assert watchdog.rescheduled == 0  # waiting on the queue, not hung


def test_watchdog_without_registry_traces_directly():
    sim, net, clusters, pm, um, _ = make_stack(registry=False)
    sim.telemetry.enable()
    net.fs(ORIGIN).write("in-0.dat", 2e6, 0.0)
    pilots = pm.submit_pilots([pilot_desc("alpha")])
    um.add_pilots(pilots)
    sim.run(until=30.0)
    units = um.submit_units([staged_unit(0)])
    watchdog = UnitWatchdog(sim, um, units, timeout_s=30.0)
    sim.call_in(0.5, net.link_to("alpha").set_degradation, 0.0)
    sim.run(until=200.0)
    assert watchdog.rescheduled >= 1
    assert [
        i for i in sim.telemetry.instants if i["name"] == "watchdog-reschedule"
    ]
