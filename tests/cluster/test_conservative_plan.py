"""Conservative backfilling keeps its plan across passes, exactly.

A long-lived :class:`ConservativeBackfillScheduler` resumes its last
reservation plan when the running set has only gained that pass's
picks, and stops planning after the last queued job that can start
now. Every pass here is checked against :func:`reference_picks`, the
textbook planner of Mu'alem & Feitelson (IEEE TPDS 2001), which shares
no code with the scheduler: a fresh profile, every queued job reserved
in queue order at its earliest fit, no kept plan and no stop rule. The
picks must be identical.
"""

from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    BatchJob,
    Cluster,
    ConservativeBackfillScheduler,
    JobState,
    SchedulerView,
)
from repro.cluster.schedulers import RunningMirror
from repro.cluster.job import FINAL_STATES
from repro.des import Simulation


def reference_picks(view):
    """Conservative backfilling as Mu'alem & Feitelson define it.

    The free capacity is a step function of time built from the running
    set: ``free_cores`` now, raised by each running job's cores at its
    expected end (ends at or before now count now). Each queued job in
    queue order is reserved at the earliest breakpoint where its cores
    stay free for its whole walltime, found by checking every
    breakpoint in turn. The jobs reserved at now are the picks.
    """
    now = view.now
    releases = {}
    for end, _seq, cores in view.mirror.entries:
        t = max(end, now)
        releases[t] = releases.get(t, 0) + cores
    times = sorted({now, *releases})
    free = []
    level = view.free_cores
    for t in times:
        level += releases.get(t, 0)
        free.append(level)
    picks = []
    for job in view.pending:
        for start, t in enumerate(times):
            end = t + job.walltime
            k = start
            while k < len(times) and times[k] < end and free[k] >= job.cores:
                k += 1
            if k == len(times) or times[k] >= end:
                break
        if end not in times:
            k = bisect_right(times, end)
            times.insert(k, end)
            free.insert(k, free[k - 1])
        for k in range(start, len(times)):
            if times[k] >= end:
                break
            free[k] -= job.cores
        if t == now:
            picks.append(job)
    return picks


class _CheckedScheduler(ConservativeBackfillScheduler):
    """Asserts every pass picks what the reference planner picks."""

    def __init__(self):
        super().__init__()
        self.passes = 0
        self.resumed = 0

    def select(self, view):
        expected = reference_picks(view)
        kept = self._kept
        picks = super().select(view)
        assert picks == expected
        self.passes += 1
        if kept is not None and self._kept is not None and (
            self._kept.profile is kept.profile
        ):
            self.resumed += 1
        return picks


_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(1, 24),  # cores
            st.integers(1, 300),  # runtime: early finishes and timeouts
            st.integers(1, 300),  # walltime
        ),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("kill"), st.integers(0, 63)),
        st.tuples(st.just("offline"), st.integers(1, 200)),
        st.tuples(st.just("run"), st.integers(0, 120)),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(steps=_steps)
def test_kept_plan_picks_what_a_fresh_plan_picks(steps):
    """Submits, early finishes, timeouts, pending cancels, running kills
    and outages: the long-lived scheduler, with its kept plan and its
    stop rule, never diverges from the reference planner. ``cancel``
    hits pending and running jobs alike."""
    sim = Simulation(seed=5)
    scheduler = _CheckedScheduler()
    cluster = Cluster(
        sim, "c", nodes=4, cores_per_node=8, scheduler=scheduler,
        submit_overhead=1.0,
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
    sim.run()
    assert all(j.state in FINAL_STATES for j in jobs)


def test_cancelling_a_planned_job_replans_from_scratch():
    """A pending cancel through the cluster: the kept plan reserved the
    cancelled job, so the queue no longer begins with the kept jobs and
    the next pass plans afresh, still picking what the reference does."""
    sim = Simulation(seed=1)
    scheduler = _CheckedScheduler()
    cluster = Cluster(
        sim, "c", nodes=1, cores_per_node=8, scheduler=scheduler,
        submit_overhead=0.0,
    )
    cluster.submit(BatchJob(cores=5, runtime=100, walltime=100))
    sim.run(until=1)
    wide = cluster.submit(BatchJob(cores=8, runtime=50, walltime=50))
    small = cluster.submit(BatchJob(cores=2, runtime=50, walltime=50))
    behind = cluster.submit(BatchJob(cores=8, runtime=50, walltime=50))
    sim.run(until=2)
    kept = scheduler._kept
    assert kept.unpicked == [wide]  # reserved at 100; small backfilled
    assert small.state is JobState.RUNNING
    cluster.cancel(wide)
    sim.run(until=3)
    assert scheduler._kept.profile is not kept.profile
    assert scheduler._kept.unpicked == []  # behind cannot start now
    sim.run()
    assert behind.start_time == 100.0


def test_busy_queue_resumes_the_kept_plan():
    """A deep queue behind a full machine: passes that follow only
    submissions resume the plan instead of rebuilding it."""
    sim = Simulation(seed=1)
    scheduler = _CheckedScheduler()
    cluster = Cluster(
        sim, "c", nodes=2, cores_per_node=8, scheduler=scheduler,
        submit_overhead=0.0,
    )
    for i in range(40):
        sim.call_at(
            float(i), cluster.submit,
            BatchJob(cores=1 + i % 5, runtime=50.0 + i, walltime=100.0),
        )
    sim.run()
    assert scheduler.resumed > 0
    assert scheduler.resumed < scheduler.passes


def _view(mirror, pending, free, now=0.0):
    return SchedulerView(now=now, free_cores=free, pending=pending,
                         mirror=mirror)


def test_unstarted_picks_force_a_fresh_plan():
    """Reusing a scheduler over a view whose picks never started (a
    benchmark loop) plans from scratch every time."""
    mirror = RunningMirror()
    mirror.start(1, 100.0, 6)
    pending = [BatchJob(cores=8, runtime=10, walltime=10),
               BatchJob(cores=2, runtime=10, walltime=10)]
    scheduler = ConservativeBackfillScheduler()
    first = scheduler.select(_view(mirror, pending, free=2))
    profile = scheduler._kept.profile
    assert first == [pending[1]]
    assert scheduler.select(_view(mirror, pending, free=2)) == first
    assert scheduler._kept.profile is not profile


def test_a_finish_forces_a_fresh_plan():
    mirror = RunningMirror()
    mirror.start(1, 100.0, 8)
    pending = [BatchJob(cores=8, runtime=10, walltime=10)]
    scheduler = ConservativeBackfillScheduler()
    assert scheduler.select(_view(mirror, pending, free=2, now=1.0)) == []
    profile = scheduler._kept.profile
    assert scheduler.select(_view(mirror, pending, free=2, now=2.0)) == []
    assert scheduler._kept.profile is profile  # nothing changed: resumed
    mirror.finish(1)
    assert scheduler.select(_view(mirror, pending, free=10, now=3.0)) == [
        pending[0]
    ]
    assert scheduler._kept.profile is not profile


def test_a_cancelled_kept_job_forces_a_fresh_plan():
    """The queue no longer begins with the kept jobs: their reservations
    are stale, and the job behind them starts now."""
    mirror = RunningMirror()
    mirror.start(1, 100.0, 8)
    blocked = BatchJob(cores=8, runtime=50, walltime=50)
    scheduler = ConservativeBackfillScheduler()
    assert scheduler.select(_view(mirror, [blocked], free=2)) == []
    fits = BatchJob(cores=2, runtime=500, walltime=500)
    assert scheduler.select(_view(mirror, [fits], free=2, now=1.0)) == [fits]


def test_a_release_due_at_now_forces_a_fresh_plan():
    """A running job whose expected end is now, not yet finished, folds
    into the level at now; the kept profile still has it as a future
    breakpoint and is not resumed."""
    mirror = RunningMirror()
    mirror.start(1, 100.0, 8)
    wide = BatchJob(cores=8, runtime=50, walltime=50)
    scheduler = ConservativeBackfillScheduler()
    assert scheduler.select(_view(mirror, [wide], free=2, now=50.0)) == []
    late = BatchJob(cores=4, runtime=10, walltime=10)
    view = _view(mirror, [wide, late], free=2, now=100.0)
    assert scheduler.select(view) == reference_picks(view) == [wide]


def test_an_unpickable_tail_is_planned_by_the_next_pass():
    """A job that cannot start now, behind the last one that can, is
    left unplanned; the next pass resumes the plan, reserves it and
    picks what the reference planner picks."""
    mirror = RunningMirror()
    mirror.start(1, 100.0, 8)
    small = BatchJob(cores=2, runtime=50, walltime=50)
    big = BatchJob(cores=8, runtime=50, walltime=50)
    scheduler = ConservativeBackfillScheduler()
    view = _view(mirror, [small, big], free=4)
    assert scheduler.select(view) == reference_picks(view) == [small]
    profile = scheduler._kept.profile
    assert scheduler._kept.unpicked == []
    assert profile.times == [0.0, 50.0, 100.0]  # big holds no reservation
    mirror.start(small.uid, 50.0, 2)
    tiny = BatchJob(cores=2, runtime=10, walltime=10)
    view = _view(mirror, [big, tiny], free=2, now=1.0)
    assert scheduler.select(view) == reference_picks(view) == [tiny]
    assert scheduler._kept.profile is profile  # resumed, not rebuilt
    assert scheduler._kept.unpicked == [big]
    assert 150.0 in profile.times  # big reserved at 100 for 50 s
