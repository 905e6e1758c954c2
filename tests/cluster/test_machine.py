"""Integration tests for the Cluster facade on the DES kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AllocationError,
    BatchJob,
    BatchScheduler,
    Cluster,
    EasyBackfillScheduler,
    FcfsScheduler,
    JobState,
    SubmissionError,
)
from repro.cluster.job import FINAL_STATES
from repro.des import Simulation


def make_cluster(sim, nodes=2, cpn=8, scheduler=None, overhead=0.0):
    return Cluster(
        sim,
        "test-cluster",
        nodes=nodes,
        cores_per_node=cpn,
        scheduler=scheduler,
        submit_overhead=overhead,
    )


def test_construction_validation():
    sim = Simulation()
    with pytest.raises(ValueError):
        make_cluster(sim, nodes=0)
    with pytest.raises(ValueError):
        make_cluster(sim, cpn=0)


def test_core_accounting():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=4, cpn=16)
    assert (cluster.nodes, cluster.cores_per_node) == (4, 16)
    assert cluster.total_cores == cluster.free_cores == 64
    assert cluster.utilization == 0.0
    job = cluster.submit(BatchJob(cores=20, runtime=100, walltime=100))
    sim.run(until=50)
    assert cluster.free_cores == 44
    assert cluster.utilization == 20 / 64
    sim.run()
    assert job.state is JobState.COMPLETED
    assert cluster.free_cores == 64


def test_idle_machine_runs_job_immediately():
    sim = Simulation()
    cluster = make_cluster(sim)
    job = BatchJob(cores=4, runtime=100, walltime=200)
    cluster.submit(job)
    sim.run()
    assert job.state is JobState.COMPLETED
    assert job.submit_time == 0.0
    assert job.start_time == 0.0
    assert job.end_time == 100.0
    assert job.wait_time == 0.0
    assert cluster.completed_jobs == 1


def test_submit_overhead_delays_pending():
    sim = Simulation()
    cluster = make_cluster(sim, overhead=5.0)
    job = BatchJob(cores=1, runtime=10, walltime=20)
    cluster.submit(job)
    sim.run()
    assert job.submit_time == 5.0
    assert job.end_time == 15.0


def test_oversized_job_rejected():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8)
    with pytest.raises(SubmissionError):
        cluster.submit(BatchJob(cores=9, runtime=10, walltime=10))


def test_double_submit_rejected():
    sim = Simulation()
    cluster = make_cluster(sim)
    job = BatchJob(cores=1, runtime=10, walltime=10)
    cluster.submit(job)
    sim.run()
    with pytest.raises(SubmissionError):
        cluster.submit(job)


def test_job_killed_at_walltime():
    sim = Simulation()
    cluster = make_cluster(sim)
    job = BatchJob(cores=1, runtime=500, walltime=100)
    cluster.submit(job)
    sim.run()
    assert job.state is JobState.TIMEOUT
    assert job.end_time == 100.0
    assert cluster.killed_jobs == 1


def test_queueing_when_machine_full():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8)
    first = BatchJob(cores=8, runtime=100, walltime=100)
    second = BatchJob(cores=8, runtime=50, walltime=60)
    cluster.submit(first)
    cluster.submit(second)
    sim.run()
    assert second.start_time == 100.0
    assert second.wait_time == 100.0
    assert second.end_time == 150.0


def test_fcfs_convoy_vs_backfill():
    """A short narrow job bypasses a blocked wide head only with backfill."""

    def run(scheduler_cls):
        sim = Simulation()
        cluster = make_cluster(sim, nodes=2, cpn=8, scheduler=scheduler_cls())
        blocker = BatchJob(cores=8, runtime=100, walltime=100, name="blocker")
        wide = BatchJob(cores=16, runtime=10, walltime=10, name="wide")
        narrow = BatchJob(cores=2, runtime=20, walltime=20, name="narrow")
        cluster.submit(blocker)
        cluster.submit(wide)
        cluster.submit(narrow)
        sim.run()
        return narrow.start_time

    from repro.cluster import EasyBackfillScheduler

    assert run(FcfsScheduler) == 110.0  # waits for the wide job
    assert run(EasyBackfillScheduler) == 0.0  # backfills next to the blocker


def test_cancel_pending_job():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8)
    blocker = BatchJob(cores=8, runtime=100, walltime=100)
    queued = BatchJob(cores=8, runtime=10, walltime=10)
    cluster.submit(blocker)
    cluster.submit(queued)
    sim.run(until=10)
    assert queued.state is JobState.PENDING
    cluster.cancel(queued)
    assert queued.state is JobState.CANCELLED
    sim.run()
    assert queued.start_time is None


@pytest.mark.parametrize("remove", ["cancel", "kill_job"])
def test_removing_a_pending_head_dispatches_the_jobs_behind_it(remove):
    """EASY holds a 4-core job back for a queued 8-core head; removing
    the head must let it start at once, not at the next finish."""
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8,
                           scheduler=EasyBackfillScheduler())
    running = BatchJob(cores=4, runtime=100, walltime=100)
    head = BatchJob(cores=8, runtime=10, walltime=10)
    small = BatchJob(cores=4, runtime=500, walltime=500)
    for job in (running, head, small):
        cluster.submit(job)
    sim.run(until=10)
    assert small.state is JobState.PENDING  # would delay the head
    getattr(cluster, remove)(head)
    sim.run()
    assert small.start_time == 10.0


def test_cancel_running_job_frees_cores():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8)
    job = BatchJob(cores=8, runtime=1000, walltime=2000)
    follower = BatchJob(cores=8, runtime=10, walltime=20)
    cluster.submit(job)
    cluster.submit(follower)
    sim.run(until=50)
    cluster.cancel(job)
    sim.run()
    assert job.state is JobState.CANCELLED
    assert job.end_time == 50.0
    assert follower.state is JobState.COMPLETED
    assert follower.start_time == 50.0
    assert cluster.free_cores == 8


def test_cancel_before_enqueue():
    sim = Simulation()
    cluster = make_cluster(sim, overhead=10.0)
    job = BatchJob(cores=1, runtime=10, walltime=10)
    cluster.submit(job)
    cluster.cancel(job)  # still NEW
    sim.run()
    assert job.state is JobState.CANCELLED
    assert job.submit_time is None


def test_listener_sees_transitions():
    sim = Simulation()
    cluster = make_cluster(sim)
    job = BatchJob(cores=1, runtime=10, walltime=20)
    events = []
    cluster.add_listener(lambda j, old, new: events.append((j.uid, new)))
    cluster.submit(job)
    sim.run()
    assert events == [
        (job.uid, JobState.PENDING),
        (job.uid, JobState.RUNNING),
        (job.uid, JobState.COMPLETED),
    ]


def test_trace_records_batch_job_states():
    sim = Simulation()
    cluster = make_cluster(sim)
    job = BatchJob(cores=1, runtime=10, walltime=20)
    seen = []
    job.add_callback(lambda j, old, new: seen.append((sim.now, new.value)))
    cluster.submit(job)
    sim.run()
    assert [state for _, state in seen] == ["PENDING", "RUNNING", "COMPLETED"]
    assert seen[1][0] == job.start_time
    assert seen[2][0] == job.end_time == job.start_time + 10


def test_wait_history_populated():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8)
    a = BatchJob(cores=8, runtime=100, walltime=100)
    b = BatchJob(cores=8, runtime=10, walltime=10)
    cluster.submit(a)
    cluster.submit(b)
    sim.run()
    waits = [w for _, w, _ in cluster.wait_history]
    assert waits == [0.0, 100.0]


def test_queue_metrics():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8)
    cluster.submit(BatchJob(cores=8, runtime=100, walltime=100))
    cluster.submit(BatchJob(cores=4, runtime=50, walltime=60))
    sim.run(until=1)
    assert cluster.queue_length == 1
    assert cluster.queued_core_seconds == 4 * 60
    assert cluster.utilization == 1.0


class StubScheduler(BatchScheduler):
    """Returns whatever ``pick(pending)`` says, valid or not."""

    name = "stub"

    def __init__(self, pick):
        self.pick = pick

    def select(self, view):
        return self.pick(list(view.pending))


@pytest.mark.parametrize(
    "pick, error",
    [
        (lambda p: [p[0], p[1], p[0]], RuntimeError),  # duplicate pick
        (lambda p: [p[0], p[1]], AllocationError),  # 12 cores, 8 free
        (lambda p: [p[0], BatchJob(cores=1, runtime=1, walltime=1)],
         RuntimeError),  # a job that is not pending here
    ],
    ids=["duplicate", "over-capacity", "not-pending"],
)
def test_dispatch_pass_validated_whole(pick, error):
    """A bad pass raises before any of its picks starts."""
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8, scheduler=StubScheduler(pick))
    a = cluster.submit(BatchJob(cores=6, runtime=10, walltime=10))
    b = cluster.submit(BatchJob(cores=6, runtime=10, walltime=10))
    with pytest.raises(error):
        sim.run()
    assert a.state is b.state is JobState.PENDING
    assert not cluster._run_mirror.entries
    assert cluster.free_cores == 8


_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(1, 32),  # cores
            st.integers(1, 400),  # runtime
            st.integers(1, 400),  # walltime
        ),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("kill"), st.integers(0, 63)),
        st.tuples(st.just("offline"), st.integers(1, 300)),
        st.tuples(st.just("run"), st.integers(1, 200)),
    ),
    min_size=1,
    max_size=40,
)


def _assert_cores_conserved(cluster):
    running = [job for job, _ in cluster._run_mirror.items()]
    assert all(j.state is JobState.RUNNING for j in running)
    assert 0 <= cluster.free_cores
    assert cluster.free_cores + sum(j.cores for j in running) == (
        cluster.total_cores
    )
    assert sorted(c for _e, _s, c in cluster._run_mirror.entries) == sorted(
        j.cores for j in running
    )


@settings(max_examples=80, deadline=None)
@given(steps=_steps)
def test_core_conservation_property(steps):
    """Free + running cores is the capacity after every kind of step,
    and the scheduler's mirror holds exactly the running jobs' cores."""
    sim = Simulation(seed=3)
    cluster = make_cluster(
        sim, nodes=4, cpn=8, scheduler=EasyBackfillScheduler(), overhead=1.0
    )
    jobs = []
    for kind, *args in steps:
        if kind == "submit":
            cores, runtime, walltime = args
            jobs.append(cluster.submit(
                BatchJob(cores=cores, runtime=runtime, walltime=walltime)
            ))
        elif kind in ("cancel", "kill") and jobs:
            job = jobs[args[0] % len(jobs)]
            (cluster.cancel if kind == "cancel" else cluster.kill_job)(job)
        elif kind == "offline":
            cluster.set_offline(args[0])
        elif kind == "run":
            sim.run(until=sim.now + args[0])
        _assert_cores_conserved(cluster)
    sim.run()
    _assert_cores_conserved(cluster)
    assert all(j.state in FINAL_STATES for j in jobs)
    assert cluster.free_cores == cluster.total_cores
