"""EASY's early exits pick exactly what the full walk picked.

``EasyBackfillScheduler.select`` returns after phase 1 when no core is
free, and stops phase 3 once the free cores run out: every job needs at
least one core, so no later job could be picked. The reference below is
the select without those exits, copied verbatim; hypothesis drives both
over the same views and requires the same picks in the same order.
"""

from bisect import insort
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BatchJob, EasyBackfillScheduler, SchedulerView
from repro.cluster.schedulers import RunningMirror


def _full_walk_select(view: SchedulerView) -> List[BatchJob]:
    """The EASY select before the early exits (the reference)."""
    picks: List[BatchJob] = []
    free = view.free_cores
    pending = view.pending

    # Phase 1: plain FCFS while the head fits (index walk — popping
    # the head of a long queue repeatedly is quadratic).
    head = 0
    n = len(pending)
    while head < n and pending[head].cores <= free:
        job = pending[head]
        picks.append(job)
        free -= job.cores
        head += 1
    if head == n:
        return picks

    # Phase 2: reservation for the (blocked) head, walking the
    # incrementally maintained end-sorted running set. Phase-1 picks
    # join with sequence numbers above every running job, which is
    # exactly where a stable sort of (running + picks) by expected
    # end would place them.
    entries = view.mirror.entries
    seq = view.mirror.next_seq()
    if picks:
        entries = list(entries)
        for i, p in enumerate(picks):
            insort(entries, (view.now + p.walltime, seq + i, p.cores))
    head_cores = pending[head].cores
    if head_cores <= free:  # pragma: no cover - head blocked => False
        shadow, extra = float("-inf"), free - head_cores
    else:
        available = free
        shadow = extra = None  # type: ignore[assignment]
        for end, _seq, cores in entries:
            available += cores
            if available >= head_cores:
                shadow, extra = end, available - head_cores
                break
        if shadow is None:
            # Unreachable when head_cores <= capacity (enforced at
            # submit).
            raise ValueError(
                "queue head can never fit on this resource"
            )

    # Phase 3: backfill later jobs against the reservation.
    for job in pending[head + 1:]:
        if job.cores > free:
            continue
        ends_before_shadow = view.now + job.walltime <= shadow
        fits_in_extra = job.cores <= extra
        if ends_before_shadow or fits_in_extra:
            picks.append(job)
            free -= job.cores
            if fits_in_extra:
                extra -= job.cores
    return picks


# Small core counts and a coarse walltime grid make exact fits (free
# reaching 0) and ties with the shadow time common.
_cores = st.integers(1, 8)
_walltime = st.sampled_from([30.0, 60.0, 90.0, 120.0, 300.0, 600.0])


@st.composite
def views(draw):
    now = draw(st.sampled_from([0.0, 45.0, 600.0]))
    running = draw(st.lists(st.tuples(_cores, _walltime), max_size=8))
    free = draw(st.integers(0, 12))
    capacity = free + sum(cores for cores, _ in running)
    pending = draw(st.lists(st.tuples(_cores, _walltime), max_size=14))
    mirror = RunningMirror()
    for uid, (cores, walltime) in enumerate(running):
        mirror.start(-1 - uid, now + walltime, cores)
    # every queued job fits the machine, as submit() enforces
    jobs = tuple(
        BatchJob(cores=min(cores, capacity), runtime=w, walltime=w)
        for cores, w in pending
    ) if capacity else ()
    return SchedulerView(
        now=now, free_cores=free, pending=jobs, mirror=mirror
    )


@settings(max_examples=400, deadline=None)
@given(view=views())
def test_early_exits_pick_what_the_full_walk_picks(view):
    assert EasyBackfillScheduler().select(view) == _full_walk_select(view)


def test_no_free_core_after_phase_one_returns_its_picks():
    mirror = RunningMirror()
    mirror.start(-1, 100.0, 4)
    a = BatchJob(cores=2, runtime=10.0, walltime=10.0)
    head = BatchJob(cores=4, runtime=10.0, walltime=10.0)
    tiny = BatchJob(cores=1, runtime=1.0, walltime=1.0)
    view = SchedulerView(
        now=0.0, free_cores=2, pending=(a, head, tiny), mirror=mirror
    )
    assert EasyBackfillScheduler().select(view) == [a]
    assert _full_walk_select(view) == [a]
