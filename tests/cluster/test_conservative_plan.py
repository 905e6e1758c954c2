"""Conservative backfilling keeps its plan across passes, exactly.

A long-lived :class:`ConservativeBackfillScheduler` resumes its last
reservation plan when the running set has only gained that pass's
picks. Every pass here is checked against a fresh scheduler planning
the same view from scratch: the picks must be identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    BatchJob,
    Cluster,
    ConservativeBackfillScheduler,
    SchedulerView,
)
from repro.cluster.schedulers import RunningMirror
from repro.des import Simulation


class _CheckedScheduler(ConservativeBackfillScheduler):
    """Asserts every pass picks what a fresh scheduler picks."""

    def __init__(self):
        super().__init__()
        self.passes = 0
        self.resumed = 0

    def select(self, view):
        expected = ConservativeBackfillScheduler().select(view)
        kept = self._kept
        picks = super().select(view)
        assert picks == expected
        self.passes += 1
        if kept is not None and self._kept.profile is kept.profile:
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
@given(steps=_steps, by_walltime=st.booleans())
def test_kept_plan_picks_what_a_fresh_plan_picks(steps, by_walltime):
    """Submits, early finishes, timeouts, pending cancels, running kills
    and outages: the long-lived scheduler never diverges from a fresh
    one. ``cancel`` hits pending and running jobs alike; a priority
    function that reorders the queue is drawn half the time."""
    sim = Simulation(seed=5)
    scheduler = _CheckedScheduler()
    cluster = Cluster(
        sim, "c", nodes=4, cores_per_node=8, scheduler=scheduler,
        submit_overhead=1.0,
        priority_fn=(lambda j, now: -j.walltime) if by_walltime else None,
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
    assert all(j.is_final for j in jobs)


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
    assert scheduler.select(view) == ConservativeBackfillScheduler().select(
        view
    ) == [wide]
