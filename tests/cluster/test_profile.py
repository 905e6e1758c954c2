"""AllocationProfile and RunningMirror.

Conservative backfill's planning rests on two facts checked here: a
reservation only lowers levels, so a window that does not fit at now
never fits later in the same pass; and anchoring every job where
``find_anchor`` says it fits keeps every level non-negative.
"""

import random
from bisect import bisect_left

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BatchJob
from repro.cluster.schedulers.base import AllocationProfile, RunningMirror


def _job(cores, walltime):
    return BatchJob(cores=cores, runtime=walltime, walltime=walltime)


# ---------------------------------------------------------------------------
# AllocationProfile
# ---------------------------------------------------------------------------


def test_from_entries_folds_past_releases():
    # releases at or before now raise the base level instead of adding
    # breakpoints in the past
    prof = AllocationProfile.from_entries(
        10.0, 2, [(5.0, 0, 3), (10.0, 1, 1), (20.0, 2, 4)]
    )
    assert prof.times == [10.0, 20.0]
    assert prof.free_at == [6, 10]


def test_reserve_end_inherits_the_level_before_it():
    """A window's end that is not a breakpoint yet is inserted with the
    level in effect there, inside the profile and past its last
    breakpoint alike."""
    prof = AllocationProfile([10.0, 20.0], [4, 8])
    prof.reserve(0, 1, 3, 5.0)  # ends at 15, inside [10, 20)
    assert prof.times == [10.0, 15.0, 20.0]
    assert prof.free_at == [1, 4, 8]
    prof.reserve(2, 3, 2, 30.0)  # ends at 50, past the last breakpoint
    assert prof.times == [10.0, 15.0, 20.0, 50.0]
    assert prof.free_at == [1, 4, 6, 8]


def test_reserve_at_an_existing_end_adds_no_breakpoint():
    prof = AllocationProfile([0.0, 10.0, 20.0], [4, 6, 8])
    prof.reserve(0, 1, 4, 10.0)
    assert prof.times == [0.0, 10.0, 20.0]
    assert prof.free_at == [0, 6, 8]


def _reserve(prof, anchor, cores, walltime):
    """Reserve at breakpoint ``anchor`` through the indices find_anchor
    would pass."""
    i = prof.times.index(anchor)
    prof.reserve(i, bisect_left(prof.times, anchor + walltime, i), cores,
                 walltime)


def test_reserve_inserts_boundaries_and_subtracts():
    prof = AllocationProfile([0.0, 100.0], [4, 10])
    _reserve(prof, 0.0, 2, 50.0)
    assert prof.times == [0.0, 50.0, 100.0]
    assert prof.free_at == [2, 4, 10]
    _reserve(prof, 50.0, 4, 100.0)  # spans the 100.0 breakpoint
    assert prof.times == [0.0, 50.0, 100.0, 150.0]
    assert prof.free_at == [2, 0, 6, 10]


def test_find_anchor_skips_blocked_windows():
    # 0 free until t=10, 2 free until t=20, 6 free after
    prof = AllocationProfile([0.0, 10.0, 20.0], [0, 2, 6])
    assert prof.find_anchor(1, 5.0) == (1, 2)  # anchor 10, ends before 20
    assert prof.find_anchor(4, 5.0) == (2, 3)
    assert prof.find_anchor(2, 100.0) == (1, 3)  # window past the end is flat
    assert prof.find_anchor(8, 1.0) == (2, 3)  # never enough: last breakpoint


def test_fits_first_is_find_anchors_first_window():
    """``headroom`` is the least level of the first window find_anchor
    tries, so a job fits from now iff its cores do not exceed it."""
    prof = AllocationProfile([0.0, 10.0, 20.0], [3, 2, 6])
    assert prof.headroom(20.0) == 2
    assert prof.headroom(10.5) == 2  # the window reaches the 2 level
    assert prof.headroom(10.0) == 3  # ends exactly where the 2 level starts
    assert prof.headroom(1.0) == 3


@given(
    jobs=st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 50)),
        min_size=1,
        max_size=30,
    ),
    entries=st.lists(
        st.tuples(st.integers(1, 100), st.integers(1, 4)),
        min_size=0,
        max_size=15,
    ),
)
@settings(max_examples=200, deadline=None)
def test_property_reserved_profile_never_negative(jobs, entries):
    """Anchoring every job where find_anchor says it fits keeps the
    remaining free capacity non-negative everywhere."""
    ends = sorted(entries)
    total = 8 + sum(c for _, c in ends)
    prof = AllocationProfile.from_entries(
        0.0, 8, [(float(t), i, c) for i, (t, c) in enumerate(ends)]
    )
    for cores, walltime in jobs:
        if cores > total:
            continue
        i, j = prof.find_anchor(cores, float(walltime))
        prof.reserve(i, j, cores, float(walltime))
    assert all(level >= 0 for level in prof.free_at)
    assert prof.times == sorted(prof.times)


def _fits_from_now(prof, cores, walltime):
    """Naive: the level at now and at every breakpoint inside the window
    is at least ``cores``."""
    now = prof.times[0]
    return all(
        level >= cores
        for t, level in zip(prof.times, prof.free_at)
        if now <= t < now + walltime
    )


_reservations = st.lists(
    st.tuples(
        st.integers(0, 40),  # breakpoint index, modulo the profile's length
        st.integers(1, 8),  # cores
        st.integers(1, 150),  # walltime
    ),
    min_size=1,
    max_size=20,
)


@given(
    entries=st.lists(
        st.tuples(st.integers(1, 100), st.integers(1, 4)),
        min_size=0,
        max_size=15,
    ),
    free=st.integers(0, 8),
    window=st.tuples(st.integers(1, 12), st.integers(1, 120)),
    reservations=_reservations,
)
@settings(max_examples=300, deadline=None)
def test_property_a_window_unfit_at_now_stays_unfit(
    entries, free, window, reservations
):
    """Conservative backfill stops planning after the last job that fits
    at now. That is exact because a reservation, wherever it lies, only
    lowers levels: a window that does not fit at now does not fit after
    any further ``reserve`` either."""
    ends = sorted(entries)
    prof = AllocationProfile.from_entries(
        0.0, free, [(float(t), i, c) for i, (t, c) in enumerate(ends)]
    )
    cores, walltime = window
    fits = _fits_from_now(prof, cores, walltime)
    assert (prof.headroom(walltime) >= cores) == fits
    for idx, r_cores, r_walltime in reservations:
        i = idx % len(prof.times)
        j = bisect_left(prof.times, prof.times[i] + r_walltime, i)
        prof.reserve(i, j, r_cores, float(r_walltime))
        now_fits = _fits_from_now(prof, cores, walltime)
        assert (prof.headroom(walltime) >= cores) == now_fits
        if not fits:
            assert not now_fits
        fits = now_fits


# ---------------------------------------------------------------------------
# RunningMirror
# ---------------------------------------------------------------------------


def test_mirror_matches_stateless_entries():
    rng = random.Random(7)
    mirror = RunningMirror()
    running = {}  # uid -> (job, end); dict preserves start order
    uid = 0
    for _ in range(300):
        if running and rng.random() < 0.45:
            gone = rng.choice(list(running))
            del running[gone]
            mirror.finish(gone)
        else:
            uid += 1
            job = _job(rng.randint(1, 16), rng.randint(1, 100))
            end = float(rng.randint(1, 1000))
            running[uid] = (job, end)
            mirror.start(uid, end, job.cores)
        # reference: a stable sort of the running set by expected end
        stateless = sorted(
            (end, i, job.cores)
            for i, (job, end) in enumerate(running.values())
        )
        assert [(e, c) for e, _s, c in mirror.entries] == [
            (e, c) for e, _s, c in stateless
        ]
    assert len(mirror.entries) == len(running)


def test_mirror_duplicate_ends_keep_start_order():
    mirror = RunningMirror()
    mirror.start(1, 50.0, 4)
    mirror.start(2, 50.0, 8)
    mirror.start(3, 50.0, 2)
    assert [c for _e, _s, c in mirror.entries] == [4, 8, 2]
    mirror.finish(2)  # removes exactly the middle entry, not a twin
    assert [c for _e, _s, c in mirror.entries] == [4, 2]
