"""Tests for the synthetic background workload and resource presets."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.cluster import (
    BackgroundWorkload,
    BatchJob,
    Cluster,
    JobState,
    PRESETS,
    WorkloadProfile,
    build_pool,
    build_resource,
)
from repro.des import Simulation


def small_cluster(sim, cores=1024):
    return Cluster(sim, "wl-test", nodes=cores // 16, cores_per_node=16,
                   submit_overhead=0.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        WorkloadProfile(offered_load=0)
    with pytest.raises(ValueError):
        WorkloadProfile(core_choices=(1, 2), core_weights=(1.0,))
    with pytest.raises(ValueError):
        WorkloadProfile(core_weights=(0.5,) * 9)  # doesn't sum to 1
    with pytest.raises(ValueError):
        WorkloadProfile(diurnal_amplitude=1.5)


def test_profile_moments():
    p = WorkloadProfile()
    assert p.mean_cores > 1
    assert p.runtime_min <= p.mean_runtime <= p.runtime_max


def test_make_job_within_bounds():
    sim = Simulation(seed=3)
    cluster = small_cluster(sim)
    wl = BackgroundWorkload(sim, cluster, WorkloadProfile())
    for _ in range(200):
        job = wl.make_job()
        assert 1 <= job.cores <= cluster.total_cores
        assert job.runtime >= wl.profile.runtime_min
        assert job.runtime <= wl.profile.runtime_max
        assert job.walltime >= 60.0
        assert job.kind == "background"


def test_accounts_cost_no_memory_until_drawn():
    """Building a workload allocates nothing per user account: labels are
    formatted for drawn accounts only. The 10**6-account build runs
    first, so a per-account table fails the test before the 2**32 one
    could exhaust memory."""
    sim = Simulation(seed=3)
    cluster = small_cluster(sim)
    BackgroundWorkload(sim, cluster, WorkloadProfile())  # one-time set-up
    for n_users in (10**6, 2**32):
        tracemalloc.start()
        try:
            wl = BackgroundWorkload(
                sim, cluster, WorkloadProfile(n_users=n_users)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, (n_users, peak)
        job = wl.make_job()
        assert job.user.startswith("bg") and int(job.user[2:]) < n_users


def test_rate_modulation_bounds():
    sim = Simulation(seed=3)
    cluster = small_cluster(sim)
    wl = BackgroundWorkload(sim, cluster, WorkloadProfile(diurnal_amplitude=0.4))
    rates = [wl.rate_at(t) for t in np.linspace(0, 24 * 3600, 97)]
    assert max(rates) <= wl.base_rate * 1.4 + 1e-12
    assert min(rates) >= wl.base_rate * 0.6 - 1e-12


def test_rate_constant_without_diurnal():
    sim = Simulation(seed=3)
    cluster = small_cluster(sim)
    wl = BackgroundWorkload(sim, cluster, WorkloadProfile(diurnal_amplitude=0.0))
    assert wl.rate_at(0) == wl.rate_at(12345) == wl.base_rate


def test_arrivals_generate_load():
    """Over a simulated day, the machine reaches sustained high utilization."""
    sim = Simulation(seed=11)
    cluster = small_cluster(sim)
    wl = BackgroundWorkload(
        sim, cluster, WorkloadProfile(offered_load=0.95, diurnal_amplitude=0.0)
    )
    wl.start()
    sim.run(until=24 * 3600)
    assert wl.submitted > 10
    assert cluster.utilization > 0.5


def test_prime_preloads_queue():
    sim = Simulation(seed=5)
    cluster = small_cluster(sim)
    wl = BackgroundWorkload(sim, cluster, WorkloadProfile(offered_load=0.95))
    n = wl.prime(backlog_hours=1.0)
    assert n > 0
    sim.run(until=60)
    assert cluster.utilization > 0.8
    assert cluster.queue_length > 0


def test_prime_requires_time_zero():
    sim = Simulation(seed=5)
    cluster = small_cluster(sim)
    wl = BackgroundWorkload(sim, cluster, WorkloadProfile())
    sim.call_in(10, lambda: None)
    sim.run()
    with pytest.raises(RuntimeError):
        wl.prime()


def test_stop_halts_arrivals():
    """stop() at s queues a job iff it arrived by s, also when its submit
    overhead ends after s; nothing is drawn past the first later arrival."""
    sim = Simulation(seed=7)
    cluster = Cluster(sim, "wl-test", nodes=64, cores_per_node=16,
                      submit_overhead=1800.0)
    wl = BackgroundWorkload(sim, cluster, WorkloadProfile())
    drawn = []
    pull = wl.next_arrival
    wl.next_arrival = lambda: drawn.append(pull()) or drawn[-1]
    wl.start()
    sim.run(until=3600)
    count = wl.submitted
    wl.stop()
    sim.run(until=4 * 3600)
    assert wl.submitted > count  # arrivals in (1800, 3600] queue late
    assert drawn[-2] <= 3600 < drawn[-1]
    assert wl.submitted == len(drawn) - 1


def test_workload_reproducible_across_runs():
    def run():
        sim = Simulation(seed=99)
        cluster = small_cluster(sim)
        wl = BackgroundWorkload(sim, cluster, WorkloadProfile())
        wl.start()
        sim.run(until=4 * 3600)
        return wl.submitted, cluster.completed_jobs

    assert run() == run()


def test_presets_cover_five_diverse_resources():
    assert len(PRESETS) == 5
    sizes = {p.total_cores for p in PRESETS.values()}
    assert len(sizes) == 5  # all different sizes
    schedulers = {p.scheduler_factory().name for p in PRESETS.values()}
    assert len(schedulers) >= 2  # heterogeneous policies


def test_build_resource_and_pool():
    sim = Simulation(seed=1)
    res = build_resource(sim, PRESETS["gordon-sim"])
    assert res.cluster.total_cores == PRESETS["gordon-sim"].total_cores
    sim2 = Simulation(seed=1)
    pool = build_pool(sim2, names=("gordon-sim", "comet-sim"), prime=False)
    assert set(pool) == {"gordon-sim", "comet-sim"}
    with pytest.raises(ValueError):
        build_pool(sim2, names=("missing-sim",))


def test_emergent_queue_waits_for_pilot_sized_jobs():
    """A wide job submitted to a busy machine experiences a nonzero wait.

    This is the core phenomenon behind the paper's Tw results, produced
    mechanistically by load rather than sampled from a distribution.
    """
    sim = Simulation(seed=21)
    res = build_resource(sim, PRESETS["blacklight-sim"])
    sim.run(until=1800)
    probe = BatchJob(cores=512, runtime=900, walltime=1800, kind="pilot")
    res.cluster.submit(probe)
    sim.run(until=48 * 3600)
    assert probe.start_time is not None, "probe never started within two days"
    assert probe.wait_time > 0
