"""Unit tests for the batch scheduling policies (pure-policy level)."""

import pytest

from repro.cluster import (
    BatchJob,
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FcfsScheduler,
    SchedulerView,
    make_scheduler,
)
from repro.cluster.schedulers import RunningMirror


def job(cores, walltime, name=""):
    return BatchJob(cores=cores, runtime=walltime, walltime=walltime, name=name)


def view(free, pending, running=()):
    """A view at t=0 whose ``running`` is ``(job, expected_end)`` pairs."""
    mirror = RunningMirror()
    for j, end in running:
        mirror.start(j.uid, end, j.cores)
    return SchedulerView(
        now=0.0, free_cores=free, pending=tuple(pending), mirror=mirror
    )


class TestFcfs:
    def test_starts_in_order_until_blocked(self):
        a, b, c = job(4, 10, "a"), job(8, 10, "b"), job(1, 10, "c")
        picks = FcfsScheduler().select(view(10, [a, b, c]))
        assert picks == [a]  # b blocks; c must not bypass

    def test_all_fit(self):
        a, b = job(4, 10), job(4, 10)
        picks = FcfsScheduler().select(view(16, [a, b]))
        assert picks == [a, b]

    def test_empty_queue(self):
        assert FcfsScheduler().select(view(16, [])) == []


class TestEasyBackfill:
    def test_backfills_short_job_behind_blocked_head(self):
        # 16-core machine, 8 free; head wants 16 (blocked until t=100).
        running = [(job(8, 100, "r"), 100.0)]
        head = job(16, 50, "head")
        short = job(4, 50, "short")  # ends at t=50 <= shadow 100 -> backfill
        picks = EasyBackfillScheduler().select(
            view(8, [head, short], running)
        )
        assert picks == [short]

    def test_does_not_backfill_job_that_delays_head(self):
        running = [(job(8, 100, "r"), 100.0)]
        head = job(16, 50, "head")
        # 8 cores would intersect the head's reservation at t=100:
        # needs 8 > extra (extra = 16-16 = 0) and ends at 200 > 100.
        long_wide = job(8, 200, "lw")
        picks = EasyBackfillScheduler().select(
            view(8, [head, long_wide], running)
        )
        assert picks == []

    def test_backfills_into_extra_cores_regardless_of_duration(self):
        # 32-core machine, 8 free; head wants 20.
        running = [(job(24, 100, "r"), 100.0)]
        head = job(20, 50, "head")
        # extra at shadow = 8+24-20 = 12 -> a 6-core job of any length fits
        # (and 6 <= 8 cores free right now).
        eternal = job(6, 10_000, "eternal")
        picks = EasyBackfillScheduler().select(
            view(8, [head, eternal], running)
        )
        assert picks == [eternal]

    def test_fcfs_phase_runs_head_first(self):
        a, b = job(4, 10, "a"), job(4, 10, "b")
        picks = EasyBackfillScheduler().select(view(16, [a, b]))
        assert picks == [a, b]

    def test_head_fits_immediately(self):
        # the head fits, so there is no shadow: the 6 cores left over
        # take a job of any length
        head = job(4, 10, "head")
        eternal = job(6, 10_000, "eternal")
        picks = EasyBackfillScheduler().select(view(10, [head, eternal]))
        assert picks == [head, eternal]

    def test_shadow_from_running_ends(self):
        # 24-core machine, 8 free; head wants 20. After r1 ends (t=50)
        # 16 are free, after r2 (t=80) 24: shadow 80, extra 4.
        running = [(job(8, 100, "r1"), 50.0), (job(8, 100, "r2"), 80.0)]
        head = job(20, 50, "head")
        too_wide = job(5, 1000, "toowide")  # 5 > extra, ends after 80
        in_extra = job(4, 10_000, "inextra")  # 4 <= extra, any length
        at_shadow = job(4, 80, "atshadow")  # ends exactly at the shadow
        picks = EasyBackfillScheduler().select(
            view(8, [head, too_wide, in_extra, at_shadow], running)
        )
        assert picks == [in_extra, at_shadow]

    def test_never_fits_raises(self):
        with pytest.raises(ValueError):
            EasyBackfillScheduler().select(view(10, [job(100, 10)]))

    def test_backfill_candidates_respect_current_free(self):
        running = [(job(12, 100, "r"), 100.0)]
        head = job(16, 50, "head")
        too_wide = job(6, 10, "toowide")  # only 4 free now
        picks = EasyBackfillScheduler().select(
            view(4, [head, too_wide], running)
        )
        assert picks == []


class TestConservativeBackfill:
    def test_behaves_like_fcfs_when_everything_fits(self):
        a, b = job(4, 10, "a"), job(4, 10, "b")
        picks = ConservativeBackfillScheduler().select(view(16, [a, b]))
        assert picks == [a, b]

    def test_backfills_job_with_no_delay_to_any_reservation(self):
        running = [(job(8, 100, "r"), 100.0)]
        head = job(16, 50, "head")
        short = job(4, 50, "short")
        picks = ConservativeBackfillScheduler().select(
            view(8, [head, short], running)
        )
        assert picks == [short]

    def test_no_start_for_job_that_would_delay_second_in_queue(self):
        # EASY would start `sneaky` (it only protects the head); conservative
        # must protect the second job's reservation too.
        running = [(job(8, 10, "r"), 10.0)]
        head = job(16, 100, "head")     # reserved at t=10
        second = job(8, 10, "second")   # reserved at t=110 (after head)
        sneaky = job(8, 150, "sneaky")  # would run 0..150, delaying second
        cons_picks = ConservativeBackfillScheduler().select(
            view(8, [head, second, sneaky], running)
        )
        assert sneaky not in cons_picks


def test_registry():
    assert make_scheduler("fcfs").name == "fcfs"
    assert make_scheduler("easy-backfill").name == "easy-backfill"
    assert make_scheduler("conservative-backfill").name == "conservative-backfill"
    with pytest.raises(ValueError):
        make_scheduler("nope")
