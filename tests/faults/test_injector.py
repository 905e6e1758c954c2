"""FaultInjector: enacting plans against the live stack, and its fault log."""

import pytest

from repro.cluster import Cluster
from repro.des import Simulation
from repro.faults import (
    DegradeLink,
    FaultInjectionError,
    FaultInjector,
    FaultPlan,
    KillPilot,
    Outage,
    PilotHazard,
    fault_log,
)
from repro.net import Network
from repro.pilot import ComputePilotDescription, PilotManager, PilotState


def make_stack(seed=0, sites=("alpha", "beta")):
    sim = Simulation(seed=seed)
    net = Network(sim)
    clusters = {}
    for name in sites:
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=4, cores_per_node=8,
                                 submit_overhead=1.0)
    pm = PilotManager(sim, clusters)
    return sim, net, clusters, pm


def desc(resource="alpha", cores=8, runtime_min=120):
    return ComputePilotDescription(
        resource=resource, cores=cores, runtime_min=runtime_min
    )


# -- pilot kills ---------------------------------------------------------------


def test_scripted_kill_fails_an_active_pilot():
    sim, net, clusters, pm = make_stack()
    (pilot,) = pm.submit_pilots(desc())
    plan = FaultPlan(actions=(KillPilot(at=500.0, index=0),))
    inj = FaultInjector(sim, plan, pilot_manager=pm).arm()
    sim.run(until=1000.0)
    assert pilot.state is PilotState.FAILED
    events = list(inj.log)
    assert len(events) == 1
    assert events[0].kind == "pilot-kill"
    assert events[0].target == "alpha/pilot#0"
    assert events[0].time == 500.0
    assert dict(events[0].details)["cause"] == "scripted"


def test_kill_by_resource_picks_oldest_matching_pilot():
    sim, net, clusters, pm = make_stack()
    pm.submit_pilots([desc("alpha"), desc("beta"), desc("beta")])
    plan = FaultPlan(actions=(KillPilot(at=300.0, resource="beta"),))
    inj = FaultInjector(sim, plan, pilot_manager=pm).arm()
    sim.run(until=1000.0)
    assert pm.pilots[0].state is not PilotState.FAILED
    assert pm.pilots[1].state is PilotState.FAILED
    assert pm.pilots[2].state is not PilotState.FAILED
    assert inj.log.events[0].target == "beta/pilot#1"


def test_kill_with_no_candidate_logs_a_miss():
    sim, net, clusters, pm = make_stack()
    plan = FaultPlan(actions=(KillPilot(at=100.0),))
    inj = FaultInjector(sim, plan, pilot_manager=pm).arm()
    sim.run(until=200.0)
    assert inj.log.events[0].kind == "pilot-kill-miss"
    assert inj.log.events[0].target == "*"


def test_kill_requires_a_pilot_manager():
    sim, net, clusters, _ = make_stack()
    plan = FaultPlan(actions=(KillPilot(at=100.0),))
    FaultInjector(sim, plan, clusters=clusters).arm()
    with pytest.raises(FaultInjectionError, match="pilot manager"):
        sim.run(until=200.0)


def test_plan_times_are_relative_to_arming_epoch():
    """A plan authored as "kill at t=500" works after any warm-up."""
    sim, net, clusters, pm = make_stack()
    sim.run(until=10_000.0)  # warm-up
    (pilot,) = pm.submit_pilots(desc())
    plan = FaultPlan(actions=(KillPilot(at=500.0, index=0),))
    inj = FaultInjector(sim, plan, pilot_manager=pm).arm()
    sim.run(until=12_000.0)
    assert pilot.state is PilotState.FAILED
    assert inj.log.events[0].time == 10_500.0


def test_hazard_kills_are_reproducible_across_fresh_stacks():
    def run_once():
        sim, net, clusters, pm = make_stack(seed=3)
        pm.submit_pilots([desc("alpha"), desc("beta")])
        plan = FaultPlan(
            seed=11, actions=(PilotHazard(rate_per_s=1.0 / 900.0),)
        )
        inj = FaultInjector(sim, plan, pilot_manager=pm).arm()
        sim.run(until=4000.0)
        return inj.log

    log_a, log_b = run_once(), run_once()
    assert len(log_a) > 0
    assert log_a.canonical_json() == log_b.canonical_json()
    assert log_a.digest() == log_b.digest()


def test_different_plan_seeds_give_different_hazard_timelines():
    def run_once(plan_seed):
        sim, net, clusters, pm = make_stack(seed=3)
        pm.submit_pilots([desc("alpha"), desc("beta")])
        plan = FaultPlan(
            seed=plan_seed, actions=(PilotHazard(rate_per_s=1.0 / 600.0),)
        )
        inj = FaultInjector(sim, plan, pilot_manager=pm).arm()
        sim.run(until=4000.0)
        return inj.log

    assert run_once(1).digest() != run_once(2).digest()


# -- outages -------------------------------------------------------------------


def test_outage_takes_the_cluster_offline_and_is_logged():
    sim, net, clusters, pm = make_stack()
    plan = FaultPlan(actions=(Outage(at=100.0, resource="alpha", duration=500.0),))
    inj = FaultInjector(sim, plan, clusters=clusters).arm()
    sim.run(until=150.0)
    assert clusters["alpha"].is_offline
    assert not clusters["beta"].is_offline
    sim.run(until=1000.0)
    assert not clusters["alpha"].is_offline
    ev = inj.log.events[0]
    assert (ev.kind, ev.target) == ("outage", "alpha")


def test_outage_on_unknown_resource_raises():
    sim, net, clusters, pm = make_stack()
    plan = FaultPlan(actions=(Outage(at=10.0, resource="nowhere", duration=5.0),))
    FaultInjector(sim, plan, clusters=clusters).arm()
    with pytest.raises(FaultInjectionError, match="unknown resource"):
        sim.run(until=20.0)


# -- link degradation ----------------------------------------------------------


def test_degrade_link_throttles_and_restores():
    sim, net, clusters, pm = make_stack()
    link = net.link_to("alpha")
    base = link.bandwidth
    plan = FaultPlan(actions=(
        DegradeLink(at=100.0, site="alpha", factor=0.25, duration=200.0),
    ))
    inj = FaultInjector(sim, plan, network=net).arm()
    sim.run(until=150.0)
    assert link.degradation == 0.25
    assert link.effective_bandwidth == pytest.approx(base * 0.25)
    sim.run(until=400.0)
    assert link.degradation == 1.0
    assert [e.kind for e in inj.log] == ["link-degrade", "link-restore"]


def test_overlapping_windows_compose_by_severity():
    sim, net, clusters, pm = make_stack()
    link = net.link_to("alpha")
    plan = FaultPlan(actions=(
        DegradeLink(at=100.0, site="alpha", factor=0.5, duration=400.0),
        DegradeLink(at=200.0, site="alpha", factor=0.0, duration=100.0),
    ))
    FaultInjector(sim, plan, network=net).arm()
    sim.run(until=150.0)
    assert link.degradation == 0.5
    sim.run(until=250.0)
    assert link.is_partitioned  # the harsher window wins
    sim.run(until=350.0)
    assert link.degradation == 0.5  # back to the milder window
    sim.run(until=600.0)
    assert link.degradation == 1.0


def test_degrade_link_requires_a_network():
    sim, net, clusters, pm = make_stack()
    plan = FaultPlan(actions=(
        DegradeLink(at=1.0, site="alpha", factor=0.5, duration=10.0),
    ))
    with pytest.raises(FaultInjectionError, match="network"):
        FaultInjector(sim, plan).arm()


# -- the log itself ------------------------------------------------------------


def test_fault_log_views_and_digest():
    log = fault_log()
    log.record(10.0, "pilot-kill", "a/pilot#0", cause="scripted")
    log.record(20.0, "submit-fail", "b", permanent=False)
    log.record(30.0, "pilot-kill", "a/pilot#1", cause="hazard")
    assert len(log) == 3
    assert log.by_kind() == {"pilot-kill": 2, "submit-fail": 1}
    sub = log.between(15.0, 30.0)
    assert [e.time for e in sub] == [20.0, 30.0]
    # digest is order- and content-sensitive, stable across instances
    clone = fault_log()
    clone.record(10.0, "pilot-kill", "a/pilot#0", cause="scripted")
    clone.record(20.0, "submit-fail", "b", permanent=False)
    clone.record(30.0, "pilot-kill", "a/pilot#1", cause="hazard")
    assert clone.digest() == log.digest()
    assert "3 injected" in log.summary()
    assert fault_log().summary() == "faults: none injected"


def test_arm_is_idempotent():
    sim, net, clusters, pm = make_stack()
    pm.submit_pilots(desc())
    plan = FaultPlan(actions=(KillPilot(at=100.0, index=0),))
    inj = FaultInjector(sim, plan, pilot_manager=pm)
    inj.arm()
    inj.arm()  # second arm is a no-op, events are not doubled
    sim.run(until=200.0)
    assert len(inj.log) == 1
