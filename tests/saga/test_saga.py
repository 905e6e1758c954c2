"""Tests for the SAGA-like interoperability layer."""

import pytest

from repro.cluster import Cluster, JobState as NativeState
from repro.des import Simulation
from repro.saga import (
    AdaptorError,
    JobDescription,
    JobService,
    SagaState,
    map_native_state,
)


@pytest.fixture
def sim():
    return Simulation(seed=0)


def make_cluster(sim, name="res", nodes=4, cpn=16):
    return Cluster(sim, name, nodes=nodes, cores_per_node=cpn,
                   submit_overhead=0.0)


def desc(**kw):
    defaults = dict(
        total_cpu_count=8,
        wall_time_limit=30.0,       # minutes
        simulated_runtime_s=600.0,
        name="test-job",
    )
    defaults.update(kw)
    return JobDescription(**defaults)


class TestStateMapping:
    def test_all_native_states_mapped(self):
        for ns in NativeState:
            assert map_native_state(ns) in SagaState

    def test_timeout_maps_to_failed(self):
        assert map_native_state(NativeState.TIMEOUT) is SagaState.FAILED


class TestDescription:
    def test_validation(self):
        with pytest.raises(ValueError):
            desc(total_cpu_count=0).validate()
        with pytest.raises(ValueError):
            desc(wall_time_limit=0).validate()
        with pytest.raises(ValueError):
            desc(simulated_runtime_s=-1).validate()


class TestJobService:
    def test_url_parsing(self, sim):
        cluster = make_cluster(sim)
        with pytest.raises(ValueError):
            JobService(sim, "not a url", cluster)
        with pytest.raises(ValueError):
            JobService(sim, "warp://res", cluster)
        with pytest.raises(ValueError):
            JobService(sim, "slurm://other-host", cluster)
        svc = JobService(sim, "slurm://res", cluster)
        assert svc.resource_name == "res"

    def test_submit_and_complete(self, sim):
        cluster = make_cluster(sim)
        svc = JobService(sim, "slurm://res", cluster)
        job = svc.submit(desc())
        states = []
        job.add_callback(lambda j, s: states.append(s))
        sim.run()
        assert job.state is SagaState.DONE
        assert states == [SagaState.PENDING, SagaState.RUNNING, SagaState.DONE]
        assert job.started_at is not None
        assert job.native.end_time == job.started_at + 600.0
        assert svc.jobs == [job]

    def test_cancel_pending_job(self, sim):
        cluster = make_cluster(sim, nodes=1, cpn=8)
        svc = JobService(sim, "slurm://res", cluster)
        blocker = svc.submit(desc(total_cpu_count=8, simulated_runtime_s=5000))
        queued = svc.submit(desc(total_cpu_count=8))
        sim.run(until=100)
        assert queued.state is SagaState.PENDING
        queued.cancel()
        sim.run(until=200)
        assert queued.state is SagaState.CANCELED

    def test_walltime_kill_surfaces_as_failed(self, sim):
        cluster = make_cluster(sim)
        svc = JobService(sim, "slurm://res", cluster)
        job = svc.submit(desc(wall_time_limit=1.0, simulated_runtime_s=3600))
        sim.run()
        assert job.state is SagaState.FAILED


class TestDialects:
    def test_slurm_rounds_walltime_up_to_minutes(self, sim):
        cluster = make_cluster(sim)
        svc = JobService(sim, "slurm://res", cluster)
        job = svc.submit(desc(wall_time_limit=10.2))
        assert job.native.walltime == 11 * 60.0

    def test_slurm_partition_limit(self, sim):
        cluster = make_cluster(sim)
        svc = JobService(sim, "slurm://res", cluster)
        with pytest.raises(AdaptorError):
            svc.submit(desc(wall_time_limit=100 * 24 * 60))

    def test_pbs_rounds_cores_to_whole_nodes(self, sim):
        cluster = make_cluster(sim, cpn=16)
        svc = JobService(sim, "pbs://res", cluster)
        job = svc.submit(desc(total_cpu_count=10))
        assert job.native.cores == 16
        job2 = svc.submit(desc(total_cpu_count=17))
        assert job2.native.cores == 32

    def test_pbs_rejects_oversized(self, sim):
        cluster = make_cluster(sim, nodes=2, cpn=16)
        svc = JobService(sim, "pbs://res", cluster)
        with pytest.raises(AdaptorError):
            svc.submit(desc(total_cpu_count=33))

    def test_condor_pads_walltime(self, sim):
        cluster = make_cluster(sim)
        svc = JobService(sim, "condor://res", cluster)
        job = svc.submit(desc(wall_time_limit=10))
        assert job.native.walltime == 10 * 60 * 1.5

    def test_submission_latency_differs_by_dialect(self, sim):
        cluster = make_cluster(sim)
        slurm = JobService(sim, "slurm://res", cluster).submit(desc())
        sim.run()
        t_slurm = slurm.native.submit_time

        sim2 = Simulation()
        cluster2 = make_cluster(sim2)
        condor = JobService(sim2, "condor://res", cluster2).submit(desc())
        sim2.run()
        t_condor = condor.native.submit_time
        assert t_condor > t_slurm  # match-making cycle is slower

    def test_same_description_different_dialects_same_uniform_view(self, sim):
        """The interoperability contract: identical uniform state sequences."""
        sequences = {}
        for scheme in ("slurm", "pbs", "condor"):
            s = Simulation()
            c = make_cluster(s)
            svc = JobService(s, f"{scheme}://res", c)
            job = svc.submit(desc())
            seen = []
            job.add_callback(lambda j, st, seen=seen: seen.append(st))
            s.run()
            sequences[scheme] = seen
        assert (
            sequences["slurm"] == sequences["pbs"] == sequences["condor"]
            == [SagaState.PENDING, SagaState.RUNNING, SagaState.DONE]
        )
