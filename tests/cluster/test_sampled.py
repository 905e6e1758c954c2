"""Tests for the sampled-wait cluster (the ablation's rejected model)."""

import numpy as np
import pytest

from repro.cluster import BatchJob, JobState
from repro.cluster.sampled import SampledWaitCluster, fit_lognormal_waits
from repro.des import Simulation


def make(sim, mu=3.0, sigma=0.5):
    return SampledWaitCluster(
        sim, "sampled", nodes=4, cores_per_node=8,
        wait_mu=mu, wait_sigma=sigma, submit_overhead=0.0,
    )


def test_fit_lognormal():
    mu, sigma = fit_lognormal_waits([100, 200, 400, 800])
    assert mu == pytest.approx(np.log([100, 200, 400, 800]).mean())
    assert sigma > 0
    with pytest.raises(ValueError):
        fit_lognormal_waits([])
    # floored at 1 s: zeros don't blow up the log
    mu0, _ = fit_lognormal_waits([0, 0, 0])
    assert mu0 == 0.0


def test_jobs_wait_sampled_durations():
    sim = Simulation(seed=5)
    cluster = make(sim, mu=np.log(300), sigma=0.1)
    jobs = [BatchJob(cores=1, runtime=60, walltime=120) for _ in range(10)]
    for j in jobs:
        cluster.submit(j)
    sim.run()
    waits = [j.wait_time for j in jobs]
    assert all(150 < w < 600 for w in waits)  # ~lognormal(log 300, 0.1)
    assert len(set(waits)) == len(waits)  # i.i.d., not identical
    assert cluster.completed_jobs == 10


def test_capacity_never_blocks():
    sim = Simulation(seed=6)
    cluster = make(sim, mu=np.log(10), sigma=0.01)
    # 20 full-machine jobs all start ~simultaneously regardless of capacity
    jobs = [BatchJob(cores=32, runtime=1000, walltime=2000) for _ in range(20)]
    for j in jobs:
        cluster.submit(j)
    sim.run(until=100)
    assert all(j.state is JobState.RUNNING for j in jobs)
    # the base cluster's accounting still holds, oversubscribed
    assert cluster.free_cores == 32 - 20 * 32
    assert cluster.utilization == 20.0


def test_cancel_paths():
    sim = Simulation(seed=7)
    cluster = make(sim, mu=np.log(500), sigma=0.01)
    pending = BatchJob(cores=1, runtime=60, walltime=120)
    running = BatchJob(cores=1, runtime=5000, walltime=6000)
    cluster.submit(pending)
    cluster.submit(running)
    sim.run(until=600)  # both started? no: cancel pending first
    # running job is RUNNING; cancel it
    assert running.state is JobState.RUNNING
    cluster.cancel(running)
    assert running.state is JobState.CANCELLED
    sim.run()
    assert pending.state is JobState.COMPLETED


def test_walltime_kill_still_applies():
    sim = Simulation(seed=8)
    cluster = make(sim, mu=np.log(10), sigma=0.01)
    job = BatchJob(cores=1, runtime=5000, walltime=100)
    cluster.submit(job)
    sim.run()
    assert job.state is JobState.TIMEOUT


def _assert_accounting(cluster):
    held = sum(j.cores for j, _ in cluster._run_mirror.items())
    assert cluster.free_cores == cluster.total_cores - held


@pytest.mark.parametrize("abort", ["kill_job", "set_offline"])
def test_kill_and_outage_fail_a_running_job(abort):
    sim = Simulation(seed=9)
    cluster = make(sim, mu=np.log(10), sigma=0.01)
    job = cluster.submit(BatchJob(cores=4, runtime=5000, walltime=6000))
    sim.run(until=100)
    assert job.state is JobState.RUNNING
    assert cluster.free_cores == 28
    _assert_accounting(cluster)
    if abort == "kill_job":
        cluster.kill_job(job)
    else:
        cluster.set_offline(50)
    assert job.state is JobState.FAILED
    assert job.end_time == 100.0
    assert not cluster._run_mirror.entries
    assert cluster.free_cores == cluster.total_cores
    sim.run()
    assert job.state is JobState.FAILED


def test_every_path_clears_arrival_order():
    sim = Simulation(seed=10)
    cluster = make(sim, mu=np.log(100), sigma=0.01)
    jobs = [
        cluster.submit(BatchJob(cores=8, runtime=rt, walltime=wt))
        for rt, wt in [(50, 100), (500, 100), (5000, 6000), (5000, 6000),
                       (50, 100), (50, 100)]
    ]
    done, timeout, cancel_run, kill_run, cancel_pend, kill_pend = jobs
    sim.run(until=1)
    cluster.cancel(cancel_pend)
    cluster.kill_job(kill_pend)
    sim.run(until=150)
    _assert_accounting(cluster)
    cluster.cancel(cancel_run)
    cluster.kill_job(kill_run)
    _assert_accounting(cluster)
    sim.run()
    assert [j.state for j in jobs] == [
        JobState.COMPLETED, JobState.TIMEOUT, JobState.CANCELLED,
        JobState.FAILED, JobState.CANCELLED, JobState.FAILED,
    ]
    assert cluster._pending_uids == set()
    assert cluster.free_cores == cluster.total_cores
