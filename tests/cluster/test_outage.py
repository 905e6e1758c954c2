"""Tests for resource outages (failure injection)."""

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import BatchJob, Cluster, JobState
from repro.core import Binding, ExecutionManager, PlannerConfig
from repro.des import Simulation
from repro.net import Network
from repro.skeleton import SkeletonAPI, bag_of_tasks


def make_cluster(sim, name="c", nodes=2, cpn=8):
    return Cluster(sim, name, nodes=nodes, cores_per_node=cpn,
                   submit_overhead=0.0)


def test_outage_validation():
    sim = Simulation()
    cluster = make_cluster(sim)
    with pytest.raises(ValueError):
        cluster.set_offline(0)


def test_outage_kills_running_jobs():
    sim = Simulation()
    cluster = make_cluster(sim)
    job = BatchJob(cores=8, runtime=1000, walltime=2000)
    cluster.submit(job)
    sim.run(until=100)
    assert job.state is JobState.RUNNING
    cluster.set_offline(600)
    assert job.state is JobState.FAILED
    assert job.end_time == 100.0
    assert cluster.free_cores == cluster.total_cores
    assert cluster.is_offline
    # an outage kill counts as a kill, as kill_job and walltime kills do
    assert cluster.killed_jobs == 1


def test_queued_jobs_survive_and_start_after_outage():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8)
    runner = BatchJob(cores=8, runtime=5000, walltime=6000)
    queued = BatchJob(cores=8, runtime=100, walltime=200)
    cluster.submit(runner)
    cluster.submit(queued)
    sim.run(until=50)
    cluster.set_offline(1000)
    sim.run(until=500)
    assert queued.state is JobState.PENDING  # frozen, not killed
    sim.run()
    assert queued.state is JobState.COMPLETED
    assert queued.start_time >= 1050.0  # not before the outage ends


def test_no_dispatch_during_outage():
    sim = Simulation()
    cluster = make_cluster(sim)
    cluster.set_offline(500)
    job = BatchJob(cores=1, runtime=10, walltime=60)
    cluster.submit(job)
    sim.run(until=400)
    assert job.state is JobState.PENDING
    sim.run()
    assert job.state is JobState.COMPLETED
    assert job.start_time >= 500.0


def test_repeated_outages_extend():
    sim = Simulation()
    cluster = make_cluster(sim)
    cluster.set_offline(100)
    sim.run(until=50)
    cluster.set_offline(100)  # extends to t=150
    job = BatchJob(cores=1, runtime=10, walltime=60)
    cluster.submit(job)
    sim.run()
    assert job.start_time >= 150.0


def test_trace_records_outage_window():
    sim = Simulation()
    sim.telemetry.enable()
    cluster = make_cluster(sim)
    cluster.set_offline(300)
    sim.run()
    events = [
        (i["t"], i["name"]) for i in sim.telemetry.instants
        if i["track"] == "cluster/c"
    ]
    assert events == [(0.0, "offline"), (300.0, "online")]


def test_execution_survives_mid_run_outage():
    """A pilot killed by an outage strands its tasks; the middleware
    restarts them on the surviving resource (the paper's fault story)."""
    sim = Simulation(seed=3)
    net = Network(sim)
    clusters = {}
    for name in ("fragile", "sturdy"):
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = make_cluster(sim, name, nodes=4, cpn=8)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle, agent_bootstrap_s=0.0)

    # Schedule an outage on "fragile" during task execution.
    sim.call_at(300.0, clusters["fragile"].set_offline, 4000.0)

    api = SkeletonAPI(bag_of_tasks(16, task_duration=600), seed=1)
    report = em.execute(
        api,
        PlannerConfig(
            binding=Binding.LATE, n_pilots=2,
            resources=("fragile", "sturdy"),
        ),
    )
    assert report.succeeded, "all tasks must finish despite the outage"
    assert report.decomposition.restarts > 0
    # the fragile pilot failed; the sturdy one survived
    states = {p.resource: p.state.value for p in report.pilots}
    assert states["fragile"] == "FAILED"
    # everything that completed ultimately ran on the survivor or before
    # the outage hit
    finishers = {u.pilot.resource for u in report.units}
    assert "sturdy" in finishers
