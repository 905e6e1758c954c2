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
start and finish, never re-sorted per pass.
"""

from __future__ import annotations

from bisect import insort
from typing import List

from ..job import BatchJob
from .base import AllocationProfile, BatchScheduler, SchedulerView


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


class ConservativeBackfillScheduler(BatchScheduler):
    """Conservative backfilling: reservations for every queued job.

    We simulate the allocation profile forward in time. Each pending job,
    in queue order, is given the earliest anchor point where it fits for
    its whole walltime; a job may start now only if its anchor is *now*.
    This never delays any earlier-queued job, at the cost of fewer
    backfill opportunities than EASY.

    The base profile (capacity releases from running jobs) comes from
    the cluster's running mirror — start/finish deltas, no per-call
    sort — and the per-pass reservation plan uses bisect-based
    breakpoint insertion and a skip-jump anchor search (see
    :class:`~.base.AllocationProfile`).
    """

    name = "conservative-backfill"

    def select(self, view: SchedulerView) -> List[BatchJob]:
        entries = view.mirror.entries
        now = view.now
        if view.free_cores == 0 and (not entries or entries[0][0] > now):
            # The profile's level at now would be exactly free_cores
            # (no release folds into the base level), so nothing can be
            # picked — skip building the profile entirely.
            return []
        profile = AllocationProfile.from_entries(
            now, view.free_cores, entries
        )
        picks: List[BatchJob] = []
        free_now = profile.free_at
        if free_now[0] == 0:
            return picks  # nothing free at now => nothing can be picked
        for job in view.pending:
            anchor = profile.find_anchor(job.cores, job.walltime)
            profile.reserve(anchor, job.cores, job.walltime)
            if anchor == now:
                picks.append(job)
                # Only jobs anchored at *now* are externally visible; the
                # profile exists for this pass alone. Once the capacity
                # free at now is exhausted no later job can anchor there,
                # so the remaining reservations cannot change the picks.
                if free_now[0] == 0:
                    break
        return picks
