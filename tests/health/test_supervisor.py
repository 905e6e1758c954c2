"""Deadline supervision and breaker integration over the full stack."""

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import (
    Binding,
    ExecutionError,
    ExecutionManager,
    PlannerConfig,
)
from repro.des import Simulation
from repro.health import BreakerPolicy, BreakerState, SupervisionPolicy
from repro.net import Network
from repro.pilot import (
    ComputePilotDescription,
    PilotManager,
    PilotState,
)
from repro.saga import FallibleAdaptor, SubmissionFaultModel
from repro.skeleton import SkeletonAPI, bag_of_tasks


def build_stack(seed=0, supervision=None, names=("alpha", "beta", "gamma")):
    sim = Simulation(seed=seed)
    net = Network(sim)
    clusters = {}
    for name in names:
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=16, cores_per_node=16,
                                 submit_overhead=1.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle, supervision=supervision)
    return sim, net, bundle, em


def api(n_tasks=12, task_s=600.0):
    return SkeletonAPI(bag_of_tasks(n_tasks, task_duration=task_s), seed=1)


LATE_2P = PlannerConfig(
    binding=Binding.LATE, n_pilots=2, unit_scheduler="backfill"
)


def test_supervision_policy_validation():
    with pytest.raises(ValueError):
        SupervisionPolicy(watchdog_timeout_s=0.0)
    with pytest.raises(ValueError):
        SupervisionPolicy(deadline_s=-1.0)
    with pytest.raises(ValueError):
        SupervisionPolicy(check_interval_s=0.0)
    assert SupervisionPolicy().enabled
    assert not SupervisionPolicy(breaker=None).enabled
    assert SupervisionPolicy(breaker=None, deadline_s=60.0).enabled


def test_all_resources_quarantined_is_a_clear_error():
    sim, net, bundle, em = build_stack(supervision=SupervisionPolicy())
    for name in bundle.resources():
        em.health.breaker(name).trip("outage-observed")
    with pytest.raises(ExecutionError, match="quarantined"):
        em.execute(api(), LATE_2P)


def test_quarantined_resources_are_invisible_to_the_planner():
    sim, net, bundle, em = build_stack(supervision=SupervisionPolicy())
    em.health.breaker("alpha").trip("outage-observed")
    report = em.execute(api(), LATE_2P)
    assert report.succeeded
    assert "alpha" not in report.strategy.resources


def test_deadline_expiry_degrades_to_a_partial_result():
    sup = SupervisionPolicy(deadline_s=2500.0, check_interval_s=200.0)
    sim, net, bundle, em = build_stack(supervision=sup)
    # 8 sequential-ish hours of work against a ~40-minute budget
    report = em.execute(api(n_tasks=16, task_s=3600.0), LATE_2P)

    assert report.deadline_expired
    assert not report.succeeded
    assert "DEADLINE EXPIRED" in report.summary()
    d = report.decomposition
    assert d.units_done + d.units_failed + d.units_canceled == 16
    assert d.units_canceled > 0
    assert report.health_log.of_kind("deadline-expired")
    # the run terminated promptly after expiry instead of draining the
    # remaining hours of work
    assert sim.now < 2500.0 + 2 * sup.check_interval_s + 60.0


def test_mid_run_quarantine_triggers_a_replan():
    """A live-but-distrusted resource makes the supervisor re-derive."""
    sup = SupervisionPolicy(
        deadline_s=48 * 3600.0, check_interval_s=300.0
    )
    sim, net, bundle, em = build_stack(supervision=sup)
    sim.call_in(600.0, lambda: em.health.breaker("alpha").trip(
        "monitor-offline"
    ))
    config = PlannerConfig(
        binding=Binding.LATE, n_pilots=2, unit_scheduler="backfill",
        resources=("alpha", "beta"),
    )
    report = em.execute(api(n_tasks=24, task_s=900.0), config)

    assert report.succeeded
    assert report.replans, "the supervisor never re-planned"
    ev = report.replans[0]
    assert "alpha" in ev.quarantined
    assert "alpha" not in ev.resources
    assert report.health_log.of_kind("replan")
    assert report.decomposition.t_quarantined > 0.0
    # a re-plan never re-pins the original resource set
    assert all("alpha" not in r.resources for r in report.replans)


def test_replan_with_nothing_healthy_fails_soft_then_deadline_rescues():
    """All breakers open mid-run: replanning is impossible, the deadline
    still guarantees termination with honest accounting."""
    sup = SupervisionPolicy(deadline_s=1500.0, check_interval_s=200.0)
    sim, net, bundle, em = build_stack(supervision=sup)

    def trip_everything():
        for name in bundle.resources():
            em.health.breaker(name).trip("outage-observed")

    sim.call_in(400.0, trip_everything)
    report = em.execute(api(n_tasks=32, task_s=1800.0), LATE_2P)

    assert report.deadline_expired
    assert not report.succeeded
    assert report.health_log.of_kind("replan-failed")
    assert not report.replans  # nothing healthy: no revision was enacted


# -- half-open probes at the pilot-manager level -------------------------------


def probe_stack(cooldown_s=50.0):
    from repro.health import HealthRegistry

    sim = Simulation(seed=0)
    clusters = {"alpha": Cluster(sim, "alpha", nodes=4, cores_per_node=8,
                                 submit_overhead=1.0)}
    reg = HealthRegistry(sim, breaker=BreakerPolicy(
        failure_threshold=1, cooldown_s=cooldown_s
    ))
    pm = PilotManager(sim, clusters, health=reg)
    return sim, reg, pm


def desc():
    return ComputePilotDescription(resource="alpha", cores=8, runtime_min=60)


def test_half_open_probe_success_closes_the_breaker():
    sim, reg, pm = probe_stack()
    sim.telemetry.enable()
    reg.breaker("alpha").trip("outage-observed")

    # quarantined: submissions fail fast and are NOT held against alpha
    (rejected,) = pm.submit_pilots([desc()])
    assert rejected.state is PilotState.FAILED
    assert rejected.quarantine_rejected
    assert [
        i for i in sim.telemetry.instants if i["name"] == "submit-quarantined"
    ]
    assert reg.breaker("alpha").state is BreakerState.OPEN

    sim.run(until=60.0)  # cooldown elapses
    assert reg.breaker("alpha").state is BreakerState.HALF_OPEN

    (probe,) = pm.submit_pilots([desc()])  # takes the single probe slot
    reg.observe_pilot(probe)
    assert not probe.quarantine_rejected
    (second,) = pm.submit_pilots([desc()])  # no second probe
    assert second.quarantine_rejected

    sim.run(until=200.0)
    assert probe.state is PilotState.ACTIVE
    assert reg.breaker("alpha").state is BreakerState.CLOSED
    (after,) = pm.submit_pilots([desc()])
    assert not after.quarantine_rejected


def test_half_open_probe_failure_reopens_the_breaker():
    sim, reg, pm = probe_stack(cooldown_s=50.0)
    reg.breaker("alpha").trip("outage-observed")
    sim.run(until=60.0)
    assert reg.breaker("alpha").state is BreakerState.HALF_OPEN

    # the probe submission itself bounces off the SAGA layer
    model = SubmissionFaultModel(sim, sim.rng.get("test-faults"))
    model.add_scripted(1, resource="alpha", permanent=True)
    pm.set_adaptor_wrapper(lambda a: FallibleAdaptor(a, model))

    (probe,) = pm.submit_pilots([desc()])
    assert probe.state is PilotState.FAILED
    assert reg.breaker("alpha").state is BreakerState.OPEN

    # the cooldown restarted at the probe failure (t=60): half-open at 110
    sim.run(until=112.0)
    assert reg.breaker("alpha").state is BreakerState.HALF_OPEN
    (retry,) = pm.submit_pilots([desc()])
    reg.observe_pilot(retry)
    sim.run(until=250.0)
    assert retry.state is PilotState.ACTIVE
    assert reg.breaker("alpha").state is BreakerState.CLOSED
