"""Tests for dynamic execution (mid-flight strategy revision)."""

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import BatchJob, Cluster
from repro.core import (
    AdaptationPolicy,
    Binding,
    ExecutionManager,
    PlannerConfig,
)
from repro.core import adaptive
from repro.des import Simulation
from repro.net import Network
from repro.skeleton import SkeletonAPI, bag_of_tasks


def make_env(seed=0, sites=("slow", "fast"), nodes=16, cpn=16):
    sim = Simulation(seed=seed)
    net = Network(sim)
    clusters = {}
    for name in sites:
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=nodes, cores_per_node=cpn,
                                 submit_overhead=1.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle)
    em.pilot_manager.bootstrap_s = 0.0  # agents ready at once
    return sim, net, clusters, bundle, em


def block(cluster, runtime):
    """Occupy every core of a cluster for `runtime` seconds."""
    cluster.submit(
        BatchJob(cores=cluster.total_cores, runtime=runtime,
                 walltime=runtime + 60)
    )


def test_backup_pilot_rescues_stalled_start():
    sim, net, clusters, bundle, em = make_env()
    # "slow" is fully blocked for 4 hours; "fast" is idle.
    block(clusters["slow"], 4 * 3600)
    sim.run(until=10)
    api = SkeletonAPI(bag_of_tasks(8, task_duration=60), seed=1)
    report = em.execute(
        api,
        PlannerConfig(binding=Binding.LATE, n_pilots=1, resources=("slow",)),
        adaptation=AdaptationPolicy(activation_deadline_s=600),
    )
    assert report.succeeded
    assert len(report.adaptations) == 1
    assert report.adaptations[0].resource == "fast"
    # The strategy's decision tree records the revision explicitly.
    assert {d.name: d.value for d in report.strategy.decisions}[
        "backup_pilot_1"
    ] == "fast"
    # TTC far below the 4-hour blockade: the backup did the work.
    assert report.ttc < 2 * 3600


def test_no_adaptation_when_pilot_starts_promptly():
    sim, net, clusters, bundle, em = make_env(seed=3)
    api = SkeletonAPI(bag_of_tasks(8, task_duration=60), seed=1)
    report = em.execute(
        api,
        PlannerConfig(binding=Binding.LATE, n_pilots=1, resources=("fast",)),
        adaptation=AdaptationPolicy(activation_deadline_s=600),
    )
    assert report.succeeded
    assert report.adaptations == []
    assert len(report.pilots) == 1


def test_without_policy_execution_rides_out_the_wait():
    sim, net, clusters, bundle, em = make_env(seed=5)
    block(clusters["slow"], 2 * 3600)
    sim.run(until=10)
    api = SkeletonAPI(bag_of_tasks(8, task_duration=60), seed=1)
    report = em.execute(
        api,
        PlannerConfig(binding=Binding.LATE, n_pilots=1, resources=("slow",)),
    )
    assert report.succeeded
    assert report.decomposition.tw > 3600  # no rescue: waits out the blockade


@pytest.fixture
def short_redeadline(monkeypatch):
    """Re-arm the backup deadline after 300 s instead of 1800 s."""
    monkeypatch.setattr(adaptive, "REDEADLINE_S", 300.0)


def test_backup_count_capped(short_redeadline):
    sim, net, clusters, bundle, em = make_env(
        seed=7, sites=("a", "b", "c", "d")
    )
    for name in ("a", "b", "c", "d"):
        block(clusters[name], 10 * 3600)
    sim.run(until=10)
    api = SkeletonAPI(bag_of_tasks(4, task_duration=60), seed=1)
    report = em.execute(
        api,
        PlannerConfig(binding=Binding.LATE, n_pilots=1, resources=("a",)),
        adaptation=AdaptationPolicy(
            activation_deadline_s=300, max_backup_pilots=2
        ),
    )
    # everything blocked: two backups were tried, then the policy stopped.
    assert len(report.adaptations) == 2
    assert {e.resource for e in report.adaptations} <= {"b", "c", "d"}
    assert report.succeeded  # eventually the blockade ends and pilots run


def test_backup_resources_avoid_in_use_ones(short_redeadline):
    sim, net, clusters, bundle, em = make_env(seed=9, sites=("a", "b"))
    block(clusters["a"], 4 * 3600)
    block(clusters["b"], 4 * 3600)
    sim.run(until=10)
    api = SkeletonAPI(bag_of_tasks(4, task_duration=60), seed=1)
    report = em.execute(
        api,
        PlannerConfig(binding=Binding.LATE, n_pilots=1, resources=("a",)),
        adaptation=AdaptationPolicy(
            activation_deadline_s=300, max_backup_pilots=3
        ),
    )
    # only "b" was available to reinforce with; no duplicates on "a"/"b".
    assert len(report.adaptations) == 1
    assert report.adaptations[0].resource == "b"
