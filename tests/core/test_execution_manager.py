"""Integration tests: the Execution Manager over the full stack."""

import math

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import Binding, ExecutionManager, PlannerConfig
from repro.des import Simulation
from repro.net import Network, ORIGIN
from repro.pilot import PilotState, UnitState
from repro.skeleton import SkeletonAPI, bag_of_tasks, map_reduce


def make_env(seed=0, sites=("alpha", "beta", "gamma"), nodes=16, cpn=16):
    sim = Simulation(seed=seed)
    net = Network(sim)
    clusters = {}
    for name in sites:
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=nodes, cores_per_node=cpn,
                                 submit_overhead=1.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle)
    return sim, net, clusters, bundle, em


def test_late_binding_execution_completes():
    sim, net, clusters, bundle, em = make_env()
    api = SkeletonAPI(bag_of_tasks(24, task_duration=300), seed=1)
    report = em.execute(api)
    assert report.succeeded
    assert report.n_tasks == 24
    assert report.decomposition.units_done == 24
    assert report.ttc > 300  # at least one task wave
    assert report.strategy.binding is Binding.LATE
    assert len(report.pilots) == 3
    # pilots canceled after the run (no wasted allocation)
    assert all(p.is_final for p in report.pilots)


def test_early_binding_execution_completes():
    sim, net, clusters, bundle, em = make_env(seed=3)
    api = SkeletonAPI(bag_of_tasks(16, task_duration=120), seed=1)
    report = em.execute(api, PlannerConfig(binding=Binding.EARLY))
    assert report.succeeded
    assert report.strategy.n_pilots == 1
    assert report.strategy.pilot_cores == 16


def test_outputs_staged_back_to_origin():
    sim, net, clusters, bundle, em = make_env(seed=5)
    api = SkeletonAPI(bag_of_tasks(8, task_duration=60), seed=2)
    report = em.execute(api)
    fs = net.fs(ORIGIN)
    for task in api.concrete.all_tasks():
        for f in task.outputs:
            assert fs.exists(f.name), f"output {f.name} not staged back"


def test_decomposition_components_sane():
    sim, net, clusters, bundle, em = make_env(seed=7)
    api = SkeletonAPI(bag_of_tasks(32, task_duration=600), seed=3)
    report = em.execute(api)
    d = report.decomposition
    assert d.ttc > 0
    assert 0 <= d.tw <= d.tw_last
    assert d.tx >= 600  # at least one task's duration
    assert d.ts > 0  # staging took real time
    assert d.trp >= 0
    assert d.ttc >= d.tx  # the execution span is inside the TTC
    assert len(d.pilot_waits) == 3
    assert all(not math.isnan(w) and w >= 0 for w in d.pilot_waits)


def test_multistage_with_dependencies():
    sim, net, clusters, bundle, em = make_env(seed=11)
    api = SkeletonAPI(
        map_reduce(n_map_tasks=6, n_reduce_tasks=1,
                   map_duration=100, reduce_duration=50),
        seed=4,
    )
    report = em.execute(api)
    assert report.succeeded
    # the reduce task ran strictly after every map task finished
    reduce_unit = next(
        u for u in report.units if "/reduce/" in u.description.name
    )
    map_units = [u for u in report.units if "/map/" in u.description.name]
    t_reduce_start = reduce_unit.history.timestamp("EXECUTING")
    for mu in map_units:
        assert t_reduce_start >= mu.history.timestamp("DONE")


def test_execution_on_busy_resources_waits_in_queue():
    sim, net, clusters, bundle, em = make_env(seed=13, sites=("alpha",))
    # Occupy the single machine completely for one hour.
    from repro.cluster import BatchJob

    clusters["alpha"].submit(
        BatchJob(cores=256, runtime=3600, walltime=3700)
    )
    sim.run(until=10)
    api = SkeletonAPI(bag_of_tasks(8, task_duration=60), seed=1)
    report = em.execute(
        api, PlannerConfig(binding=Binding.EARLY, resources=("alpha",),
                           n_pilots=1)
    )
    assert report.succeeded
    assert report.decomposition.tw >= 3000  # waited for the blocker


def test_pilot_death_triggers_restart_on_other_pilot():
    sim, net, clusters, bundle, em = make_env(seed=17, sites=("alpha", "beta"))
    api = SkeletonAPI(bag_of_tasks(4, task_duration=1200), seed=1)
    # Tiny walltime: pilots die mid-task; restarts should still finish on
    # later... actually with both pilots dead the run fails cleanly.
    report = em.execute(
        api,
        PlannerConfig(
            binding=Binding.LATE, n_pilots=2,
            resources=("alpha", "beta"), pilot_walltime_min=10.0,
        ),
    )
    # pilots died at 600 s; 1200 s tasks cannot finish
    assert not report.succeeded
    assert report.decomposition.units_done == 0
    assert report.decomposition.restarts > 0
    assert all(p.is_final for p in report.pilots)
    # every unit reached a final state (no zombies)
    assert all(u.is_final for u in report.units)


def test_reports_accumulate():
    sim, net, clusters, bundle, em = make_env(seed=19)
    for seed in (1, 2):
        em.execute(SkeletonAPI(bag_of_tasks(4, task_duration=30), seed=seed))
    assert len(em.reports) == 2
    assert em.reports[0].ttc > 0


def test_trace_records_execution_phases():
    sim, net, clusters, bundle, em = make_env(seed=23)
    sim.telemetry.enable()
    api = SkeletonAPI(bag_of_tasks(4, task_duration=30), seed=1)
    t_start = sim.now
    report = em.execute(api)
    steps = report.telemetry.em_steps
    assert [name for name, _, _ in steps] == [
        "gather-information", "derive-strategy", "prepare-inputs",
        "instantiate-pilots", "execute-units",
    ]
    # the steps tile the enactment from its start to its end
    assert steps[0][1] == t_start
    assert steps[-1][2] == t_start + report.ttc


def test_access_schema_routing():
    sim, net, clusters, bundle, _ = make_env(seed=29, sites=("alpha",))
    em = ExecutionManager(sim, net, bundle, access_schemas={"alpha": "pbs"})
    api = SkeletonAPI(bag_of_tasks(4, task_duration=30), seed=1)
    report = em.execute(
        api, PlannerConfig(binding=Binding.EARLY, n_pilots=1,
                           resources=("alpha",))
    )
    assert report.succeeded
    # PBS rounds the 4-core pilot up to a whole 16-core node
    assert report.pilots[0].saga_job.native.cores == 16
