"""Backfilling batch schedulers: EASY and conservative.

EASY backfilling (Lifka's algorithm, the policy run by most production
Slurm/PBS deployments) makes one reservation — for the queue head — and
lets any later job jump the queue as long as it cannot delay that
reservation. Conservative backfilling gives *every* queued job a
reservation and only starts a job early if it delays none of them.

Both plan with requested walltimes; user overestimation of walltime is
what creates the backfill holes that pilots exploit, so modelling this
faithfully matters for the paper's queue-wait dynamics.

Both schedulers read the cluster's incrementally maintained
:class:`~.base.RunningMirror` through ``view.mirror`` — the end-sorted
running set is patched with start/finish deltas at the moment jobs
start and finish, never re-sorted per pass. The conservative scheduler
also keeps its reservation plan between passes: a pass that follows no
finish plans only the jobs the previous pass left unplanned (see
:class:`ConservativeBackfillScheduler`).
"""

from __future__ import annotations

from bisect import insort
from typing import List, NamedTuple, Optional

from ..job import BatchJob
from .base import (
    AllocationProfile,
    BatchScheduler,
    RunningMirror,
    SchedulerView,
)


class EasyBackfillScheduler(BatchScheduler):
    """EASY (aggressive) backfilling with a single head reservation."""

    name = "easy-backfill"

    def select(self, view: SchedulerView) -> List[BatchJob]:
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


class _KeptPlan(NamedTuple):
    """What one conservative pass leaves for the next."""

    mirror: RunningMirror
    releases: int
    #: the mirror's start count once the pass's picks have started.
    starts: int
    profile: AllocationProfile
    #: the jobs reserved but not picked, in queue order.
    unpicked: List[BatchJob]


class ConservativeBackfillScheduler(BatchScheduler):
    """Conservative backfilling: reservations for every queued job.

    We simulate the allocation profile forward in time. Each pending job,
    in queue order, is given the earliest anchor point where it fits for
    its whole walltime; a job may start now only if its anchor is *now*.
    This never delays any earlier-queued job, at the cost of fewer
    backfill opportunities than EASY.

    The base profile (capacity releases from running jobs) comes from
    the cluster's running mirror — start/finish deltas, no per-call
    sort — and reservations use bisect-based breakpoint insertion and a
    skip-jump anchor search (see :class:`~.base.AllocationProfile`).

    **The plan is kept across passes.** After a pass the scheduler keeps
    its profile and the jobs it reserved but did not pick. The next pass
    resumes that plan, planning only the jobs behind them, when

    * the view's mirror is the same object and has seen no finish since
      the last pass (:attr:`~.base.RunningMirror.releases`);
    * the only starts since then are the last pass's own picks
      (:attr:`~.base.RunningMirror.starts`);
    * the pending queue begins with the kept jobs, as the same objects
      in the same order; and
    * no breakpoint after the kept profile's first one lies at or before
      ``now``.

    Otherwise the pass plans from scratch. Resuming is exact — it picks
    what a fresh scheduler would. Without a finish, the profile a fresh
    pass builds equals the kept base profile less the picks'
    reservations, which the kept profile already holds: a started pick
    releases at ``start + walltime``, exactly where its reservation
    ends. Every breakpoint after the old ``now`` is also after the new
    one, so moving the first breakpoint to ``now`` changes no level. A
    fresh pass re-reserves the kept jobs first, on a profile no higher
    than the one each met when the kept pass reserved it, so every
    window that failed then still fails. The kept anchor still fits,
    because every level stays non-negative after all reservations. So
    no kept anchor moves, none is ``now``, and the tail is planned on
    the same step function either way. Anchors depend only on the step
    function, not on which redundant breakpoints it carries.
    """

    name = "conservative-backfill"

    def __init__(self) -> None:
        self._kept: Optional[_KeptPlan] = None

    def select(self, view: SchedulerView) -> List[BatchJob]:
        mirror = view.mirror
        now = view.now
        profile = self._resume(view)
        if profile is None:
            entries = mirror.entries
            if view.free_cores == 0 and (not entries or entries[0][0] > now):
                # The profile's level at now would be exactly free_cores
                # (no release folds into the base level), so nothing can
                # be picked — skip building the profile entirely.
                self._kept = None
                return []
            profile = AllocationProfile.from_entries(
                now, view.free_cores, entries
            )
            unpicked: List[BatchJob] = []
        else:
            unpicked = self._kept.unpicked
        picks: List[BatchJob] = []
        free_now = profile.free_at
        pending = view.pending
        # Plan from the first job the kept plan has not reserved. Only
        # jobs anchored at now are picked, so once the capacity free at
        # now is exhausted the remaining reservations cannot change the
        # picks; they are left unplanned for a later pass.
        i = len(unpicked)
        while free_now[0] and i < len(pending):
            job = pending[i]
            i += 1
            anchor = profile.find_anchor(job.cores, job.walltime)
            profile.reserve(anchor, job.cores, job.walltime)
            if anchor == now:
                picks.append(job)
            else:
                unpicked.append(job)
        self._kept = _KeptPlan(
            mirror, mirror.releases, mirror.starts + len(picks), profile,
            unpicked,
        )
        return picks

    def _resume(self, view: SchedulerView) -> Optional[AllocationProfile]:
        """The kept profile moved to ``view.now``, or None when the last
        pass's plan does not carry over (see the class docstring)."""
        kept = self._kept
        if kept is None:
            return None
        mirror, releases, starts, profile, unpicked = kept
        if (
            view.mirror is not mirror
            or mirror.releases != releases
            or mirror.starts != starts
        ):
            return None
        pending = view.pending
        if len(pending) < len(unpicked) or any(
            a is not b for a, b in zip(unpicked, pending)
        ):
            return None
        times = profile.times
        now = view.now
        if len(times) > 1 and times[1] <= now:
            return None
        times[0] = now
        return profile
