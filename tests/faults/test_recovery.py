"""Consumer hardening: submission retries and pilot resubmission budgets."""

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import Binding, ExecutionManager, PlannerConfig, RecoveryPolicy
from repro.des import RngStreams, Simulation
from repro.faults import (
    FaultInjector,
    FaultPlan,
    KillPilot,
    SubmitFailures,
)
from repro.health import SupervisionPolicy
from repro.net import Network
from repro.pilot import ComputePilotDescription, PilotManager, PilotState
from repro.pilot import pilot_manager
from repro.saga import FallibleAdaptor, SubmissionFaultModel
from repro.skeleton import SkeletonAPI, bag_of_tasks


def make_pm(monkeypatch, sites=("alpha",), retries=3, backoff_s=30.0):
    """A pilot manager whose submissions retry ``retries`` times with a
    backoff of ``backoff_s * 2**attempt``."""
    monkeypatch.setattr(pilot_manager, "SUBMIT_RETRIES", retries)
    monkeypatch.setattr(pilot_manager, "SUBMIT_BACKOFF_S", backoff_s)
    sim = Simulation(seed=0)
    sim.telemetry.enable()
    clusters = {
        name: Cluster(sim, name, nodes=4, cores_per_node=8, submit_overhead=1.0)
        for name in sites
    }
    pm = PilotManager(sim, clusters)
    return sim, clusters, pm


def install_model(sim, pm, **model_kw):
    model = SubmissionFaultModel(sim, RngStreams(0).get("test"), **model_kw)
    pm.set_adaptor_wrapper(lambda a: FallibleAdaptor(a, model))
    return model


def desc(resource="alpha"):
    return ComputePilotDescription(resource=resource, cores=8, runtime_min=60)


def instants(sim, name):
    return [i for i in sim.telemetry.instants if i["name"] == name]


# -- PilotManager: transient retry with exponential backoff --------------------


def test_transient_failures_are_retried_until_success(monkeypatch):
    sim, clusters, pm = make_pm(monkeypatch, retries=3, backoff_s=10.0)
    model = install_model(sim, pm)
    model.add_scripted(2)  # first two submission attempts fail transiently
    (pilot,) = pm.submit_pilots(desc())
    sim.run(until=2000.0)
    assert pilot.state is PilotState.ACTIVE
    assert pm.submit_faults == 2
    # exponential backoff: retries traced at 10s and 10+20=30s
    retries = instants(sim, "submit-retry")
    assert [r["t"] for r in retries] == [0.0, 10.0]
    assert pilot.history.timestamp("PENDING_ACTIVE") >= 30.0


def test_retry_budget_exhaustion_fails_the_pilot(monkeypatch):
    sim, clusters, pm = make_pm(monkeypatch, retries=2, backoff_s=5.0)
    model = install_model(sim, pm)
    model.add_scripted(10)  # more failures than the budget
    (pilot,) = pm.submit_pilots(desc())
    sim.run(until=2000.0)
    assert pilot.state is PilotState.FAILED
    assert pm.submit_faults == 3  # initial try + 2 retries
    assert instants(sim, "submit-exhausted")


def test_permanent_failure_fails_the_pilot_without_retry(monkeypatch):
    sim, clusters, pm = make_pm(monkeypatch, retries=5)
    model = install_model(sim, pm)
    model.add_scripted(1, permanent=True)
    (pilot,) = pm.submit_pilots(desc())
    sim.run(until=2000.0)
    assert pilot.state is PilotState.FAILED
    assert pm.submit_faults == 1
    assert not instants(sim, "submit-retry")
    assert instants(sim, "submit-rejected")


def test_scripted_failures_target_one_resource(monkeypatch):
    sim, clusters, pm = make_pm(monkeypatch, sites=("alpha", "beta"),
                                retries=0)
    model = install_model(sim, pm)
    model.add_scripted(5, resource="alpha")
    a, b = pm.submit_pilots([desc("alpha"), desc("beta")])
    sim.run(until=2000.0)
    assert a.state is PilotState.FAILED
    assert b.state is PilotState.ACTIVE


def test_cancel_during_backoff_stops_retrying(monkeypatch):
    sim, clusters, pm = make_pm(monkeypatch, retries=3, backoff_s=100.0)
    model = install_model(sim, pm)
    model.add_scripted(1)
    (pilot,) = pm.submit_pilots(desc())
    sim.call_at(50.0, pm.cancel_pilots, [pilot])  # mid-backoff
    sim.run(until=2000.0)
    assert pilot.state is PilotState.CANCELED
    assert pm.submit_faults == 1  # the retry never re-submitted


# -- RecoveryPolicy ------------------------------------------------------------


def test_recovery_policy_validation_and_delay():
    policy = RecoveryPolicy(max_resubmissions=3, backoff_s=60.0)
    assert [policy.delay(i) for i in range(3)] == [60.0, 120.0, 240.0]
    with pytest.raises(ValueError):
        RecoveryPolicy(max_resubmissions=-1)


# -- ExecutionManager: pilot resubmission --------------------------------------


def make_em(seed=0, sites=("alpha", "beta", "gamma")):
    sim = Simulation(seed=seed)
    net = Network(sim)
    clusters = {}
    for name in sites:
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=16, cores_per_node=16,
                                 submit_overhead=1.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle)
    return sim, net, clusters, bundle, em


def test_failed_pilot_is_replaced_within_budget():
    sim, net, clusters, bundle, em = make_em()
    plan = FaultPlan(actions=(KillPilot(at=400.0, index=0),))
    em.attach_faults(FaultInjector(
        sim, plan, pilot_manager=em.pilot_manager, network=net
    ))
    api = SkeletonAPI(bag_of_tasks(24, task_duration=600), seed=1)
    report = em.execute(
        api, recovery=RecoveryPolicy(max_resubmissions=2, backoff_s=30.0)
    )
    assert report.succeeded
    assert len(report.recoveries) == 1
    rec = report.recoveries[0]
    assert rec.attempt == 1
    assert rec.backoff_s == 30.0
    assert rec.time >= 400.0 + 30.0
    # the replacement pilot is part of the report
    assert len(report.pilots) == report.strategy.n_pilots + 1
    assert report.decomposition.n_faults == 1


def test_resubmission_budget_is_respected():
    sim, net, clusters, bundle, em = make_em(sites=("alpha",))
    # every pilot dies shortly after activation, forever
    plan = FaultPlan(actions=tuple(
        KillPilot(at=300.0 + 200.0 * i, resource="alpha") for i in range(8)
    ))
    em.attach_faults(FaultInjector(
        sim, plan, pilot_manager=em.pilot_manager, network=net
    ))
    api = SkeletonAPI(bag_of_tasks(8, task_duration=3000), seed=1)
    report = em.execute(
        api, recovery=RecoveryPolicy(max_resubmissions=2, backoff_s=10.0)
    )
    assert not report.succeeded
    assert len(report.recoveries) == 2  # budget, not the number of kills
    d = report.decomposition
    assert d.units_done + d.units_failed + d.units_canceled == 8


def test_no_recovery_policy_means_no_resubmission():
    sim, net, clusters, bundle, em = make_em(sites=("alpha",))
    plan = FaultPlan(actions=(KillPilot(at=400.0, index=0),))
    em.attach_faults(FaultInjector(
        sim, plan, pilot_manager=em.pilot_manager, network=net
    ))
    api = SkeletonAPI(bag_of_tasks(8, task_duration=3000), seed=1)
    report = em.execute(api)
    assert not report.succeeded
    assert report.recoveries == []


def test_submission_faults_ride_through_execution():
    """An execution under scripted submit failures still completes."""
    sim, net, clusters, bundle, em = make_em()
    plan = FaultPlan(actions=(SubmitFailures(count=2),))
    em.attach_faults(FaultInjector(
        sim, plan, pilot_manager=em.pilot_manager, network=net
    ))
    api = SkeletonAPI(bag_of_tasks(16, task_duration=300), seed=2)
    report = em.execute(api)
    assert report.succeeded
    assert em.pilot_manager.submit_faults == 2
    assert report.decomposition.n_faults == 2
    assert report.fault_log.by_kind() == {"submit-fail": 2}


# -- recovery reroute around a quarantined resource ------------------------------


def reroute_run(nodes_by_site, access_schemas=None):
    """One 64-core early-bound pilot on ``big``, whose outage at t=900 s
    kills the pilot and trips the breaker before the replacement is due."""
    sim = Simulation(seed=0)
    sim.telemetry.enable()
    net = Network(sim)
    clusters = {}
    for name, nodes in nodes_by_site.items():
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=nodes, cores_per_node=16,
                                 submit_overhead=1.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle, access_schemas=access_schemas,
                          supervision=SupervisionPolicy())
    sim.call_at(900.0, clusters["big"].set_offline, 3600.0)
    report = em.execute(
        SkeletonAPI(bag_of_tasks(64, task_duration=7200), seed=1),
        PlannerConfig(binding=Binding.EARLY, n_pilots=1, resources=("big",),
                      unit_scheduler="direct"),
        recovery=RecoveryPolicy(max_resubmissions=2),
    )
    assert report.strategy.pilot_cores == 64
    return sim, report


def test_reroute_goes_to_the_best_healthy_resource_that_fits():
    # "small" ranks ahead of "alt" but cannot hold a 64-core pilot
    sim, report = reroute_run({"big": 16, "small": 1, "alt": 16})
    (reroute,) = instants(sim, "recovery-reroute")
    assert reroute["attrs"] == {"quarantined": "big", "resource": "alt"}
    (rec,) = report.recoveries
    assert rec.resource == "alt"
    replacement = report.pilots[-1]
    assert (replacement.resource, replacement.cores) == ("alt", 64)
    assert replacement.history.timestamp("ACTIVE") is not None
    assert report.succeeded


def test_reroute_with_nothing_that_fits_retries_in_place():
    """No healthy resource can hold the pilot: the replacement goes back
    to the quarantined original and fails fast, and the run ends with a
    failure report instead of a submission error."""
    sim, report = reroute_run({"big": 16, "small": 1})
    assert not instants(sim, "recovery-reroute")
    assert [r.resource for r in report.recoveries] == ["big", "big"]
    assert {(p.resource, p.cores) for p in report.pilots} == {("big", 64)}
    assert all(p.state is PilotState.FAILED for p in report.pilots)
    assert not report.succeeded
    d = report.decomposition
    assert d.units_done + d.units_failed + d.units_canceled == 64


def test_rerouted_pilot_uses_the_access_schema_of_its_new_resource():
    """The replacement is described for ``alt``, so it is submitted
    through alt's SAGA dialect, not the one of the quarantined ``big``."""
    sim, report = reroute_run(
        {"big": 16, "small": 1, "alt": 16},
        access_schemas={"big": "pbs", "small": "slurm", "alt": "condor"},
    )
    original, replacement = report.pilots
    assert original.description.access_schema == "pbs"
    assert replacement.resource == "alt"
    assert replacement.description.access_schema == "condor"


# -- a step-4 pilot that fails inside its own submission -------------------------


def rejected_first_pilot_run(recovery):
    """One site whose first submission is permanently rejected: the only
    step-4 pilot is FAILED before step 5 submits a single unit."""
    sim, net, clusters, bundle, em = make_em(sites=("alpha",))
    em.attach_faults(FaultInjector(
        sim, FaultPlan(actions=(SubmitFailures(count=1, permanent=True),)),
        pilot_manager=em.pilot_manager, network=net,
    ))
    api = SkeletonAPI(bag_of_tasks(8, task_duration=600), seed=1)
    return em.execute(api, recovery=recovery)


def test_pilot_rejected_at_submission_without_recovery_ends_the_run():
    report = rejected_first_pilot_run(recovery=None)
    assert not report.succeeded
    assert report.recoveries == []
    (pilot,) = report.pilots
    assert pilot.state is PilotState.FAILED
    assert report.decomposition.units_canceled == 8


def test_pilot_rejected_at_submission_is_replaced_within_budget():
    report = rejected_first_pilot_run(
        RecoveryPolicy(max_resubmissions=2, backoff_s=10.0)
    )
    assert report.succeeded
    (rec,) = report.recoveries
    assert (rec.resource, rec.attempt, rec.backoff_s) == ("alpha", 1, 10.0)
    assert [p.state for p in report.pilots][0] is PilotState.FAILED
    assert report.decomposition.units_done == 8
