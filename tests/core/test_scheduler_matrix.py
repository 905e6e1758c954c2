"""Integration matrix: every legal binding x unit-scheduler combination."""

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import Binding, ExecutionManager, PlannerConfig
from repro.des import Simulation
from repro.net import Network, ORIGIN
from repro.skeleton import SkeletonAPI, bag_of_tasks

COMBINATIONS = [
    (Binding.EARLY, "direct", 1),
    (Binding.LATE, "backfill", 1),
    (Binding.LATE, "backfill", 3),
    (Binding.LATE, "round-robin", 3),
    (Binding.LATE, "locality", 3),
]


@pytest.mark.parametrize("binding,scheduler,n_pilots", COMBINATIONS)
def test_combination_executes_cleanly(binding, scheduler, n_pilots):
    sim = Simulation(seed=71)
    net = Network(sim)
    clusters = {}
    for name in ("r1", "r2", "r3"):
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=8, cores_per_node=8,
                                 submit_overhead=1.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle)
    em.pilot_manager.bootstrap_s = 0.0  # agents ready at once
    api = SkeletonAPI(bag_of_tasks(18, task_duration=120), seed=4)
    report = em.execute(
        api,
        PlannerConfig(
            binding=binding, unit_scheduler=scheduler, n_pilots=n_pilots,
        ),
    )
    assert report.succeeded, f"{binding}/{scheduler}/{n_pilots} failed"
    d = report.decomposition
    # decomposition invariants hold for every combination
    assert d.ttc > 0
    assert d.tw >= 0 and d.tx > 0 and d.ts >= 0 and d.trp >= 0
    assert d.units_done == 18
    assert len(report.pilots) == n_pilots
    # every output made it home
    fs = net.fs(ORIGIN)
    for task in api.concrete.all_tasks():
        for f in task.outputs:
            assert fs.exists(f.name)
    # pilots were canceled; no cores remain allocated to units
    for p in report.pilots:
        assert p.is_final
        if p.agent is not None:
            assert p.agent.capacity.in_use == 0


@pytest.mark.parametrize("binding,scheduler,n_pilots", COMBINATIONS)
def test_combination_is_deterministic(binding, scheduler, n_pilots):
    def run():
        sim = Simulation(seed=73)
        net = Network(sim)
        clusters = {}
        for name in ("r1", "r2"):
            net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
            clusters[name] = Cluster(sim, name, nodes=4, cores_per_node=8,
                                     submit_overhead=1.0)
        bundle = ResourceBundle("pool", sim, net, clusters)
        em = ExecutionManager(sim, net, bundle)
        em.pilot_manager.bootstrap_s = 0.0  # agents ready at once
        api = SkeletonAPI(bag_of_tasks(8, task_duration=60), seed=4)
        k = min(n_pilots, 2)
        report = em.execute(
            api,
            PlannerConfig(binding=binding, unit_scheduler=scheduler,
                          n_pilots=k),
        )
        return report.ttc, tuple(u.pilot.resource for u in report.units)

    assert run() == run()
