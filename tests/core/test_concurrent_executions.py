"""Integration: several applications executing concurrently on one pool."""

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import Binding, ExecutionManager, PlannerConfig
from repro.des import Simulation
from repro.net import Network
from repro.skeleton import SkeletonAPI, bag_of_tasks


@pytest.fixture
def env():
    sim = Simulation(seed=17)
    net = Network(sim)
    clusters = {}
    for name in ("r1", "r2", "r3"):
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=16, cores_per_node=16,
                                 submit_overhead=1.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle)
    em.pilot_manager.bootstrap_s = 0.0  # agents ready at once
    return sim, net, bundle, em


def test_two_applications_overlap(env):
    sim, net, bundle, em = env
    apps = [
        SkeletonAPI(bag_of_tasks(24, task_duration=300,
                                 name=f"app{i}"), seed=i)
        for i in (1, 2)
    ]
    procs = [em.run(api) for api in apps]
    reports = [sim.run_process(p) for p in procs]
    assert all(r.succeeded for r in reports)
    assert len(em.reports) == 2
    # both executions genuinely overlapped in simulated time
    windows = [
        (r.decomposition.t_start, r.decomposition.t_end) for r in reports
    ]
    (s1, e1), (s2, e2) = windows
    assert max(s1, s2) < min(e1, e2), "executions should overlap"


def test_concurrent_apps_share_resources_without_interference(env):
    sim, net, bundle, em = env
    big = SkeletonAPI(bag_of_tasks(48, task_duration=200, name="big"), seed=3)
    small = SkeletonAPI(bag_of_tasks(6, task_duration=100, name="small"), seed=4)
    p_big = em.run(big, PlannerConfig(binding=Binding.LATE, n_pilots=3))
    p_small = em.run(small, PlannerConfig(binding=Binding.LATE, n_pilots=1))
    r_big = sim.run_process(p_big)
    r_small = sim.run_process(p_small)
    assert r_big.succeeded and r_small.succeeded
    # unit/file namespaces never collided
    names_big = {u.description.name for u in r_big.units}
    names_small = {u.description.name for u in r_small.units}
    assert names_big.isdisjoint(names_small)


def test_staggered_submissions(env):
    sim, net, bundle, em = env
    first = SkeletonAPI(bag_of_tasks(12, task_duration=600, name="first"),
                        seed=5)
    proc_first = em.run(first)
    sim.run(until=300)  # first app is mid-flight
    second = SkeletonAPI(bag_of_tasks(12, task_duration=60, name="second"),
                         seed=6)
    proc_second = em.run(second)
    r2 = sim.run_process(proc_second)
    r1 = sim.run_process(proc_first)
    assert r1.succeeded and r2.succeeded
    assert r2.decomposition.t_start == 300.0
