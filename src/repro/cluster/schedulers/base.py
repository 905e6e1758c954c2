"""Batch-scheduler interface for the simulated resources.

A scheduler is a policy: given a read-only view of the resource state
it returns the ordered list of pending jobs to start *now*. The cluster
facade owns all mutation (allocation, state transitions, end events),
so policies stay small and independently testable. A policy may keep
its own plan between passes — conservative backfilling keeps its
:class:`AllocationProfile` while the running set only gains its picks —
but its picks must equal those of a fresh instance on the same view.

Schedulers plan with *requested* walltimes, never actual runtimes —
they know exactly what a production resource manager would know.
"""

from __future__ import annotations

import abc
from bisect import bisect_left, bisect_right, insort
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

from ..job import BatchJob

#: Sorts after every real (end, start_seq, ...) mirror entry with the
#: same end time; used to bisect the fold prefix in one comparison pass.
_MAX_SEQ = float("inf")


class SchedulerView(NamedTuple):
    """Read-only view handed to a scheduling policy.

    A NamedTuple rather than a frozen dataclass: the cluster builds one
    per scheduler pass on the hot path, and tuple construction is
    several times cheaper than per-field ``object.__setattr__``.

    ``pending`` and ``mirror`` alias live cluster state. Policies must
    not mutate them, and may read ``pending`` during the ``select`` call
    only; keeping the ``mirror`` object to recognise it, and its
    counters, on a later pass is allowed.

    Attributes
    ----------
    now:
        Current simulated time.
    free_cores:
        Cores not held by any running job.
    pending:
        Queued jobs in priority order (head first).
    mirror:
        The cluster's end-sorted running set (see :class:`RunningMirror`):
        each running job's cores and ``expected_end = start + walltime``
        (the scheduler's knowledge, not the job's hidden runtime).
    """

    now: float
    free_cores: int
    pending: Sequence[BatchJob]
    mirror: "RunningMirror"


class BatchScheduler(abc.ABC):
    """Base class for batch scheduling policies."""

    name: str = "base"

    @abc.abstractmethod
    def select(self, view: SchedulerView) -> List[BatchJob]:
        """Return pending jobs to start now, in start order.

        Implementations must only pick jobs whose core request fits in the
        free cores remaining after earlier picks in the same call.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class RunningMirror:
    """The cluster's record of its running set, kept end-sorted.

    The cluster facade owns one of these and applies job start/finish
    deltas at the moment they happen — O(log R) bisect insertion and
    removal — instead of every scheduler pass sorting the running set
    from scratch. ``entries`` stays sorted by
    ``(expected_end, start_order)``: a stable sort of the running jobs
    by expected end, in start order. Schedulers read it through
    :attr:`SchedulerView.mirror`.

    It is the only record of which jobs run: each start may carry an
    ``item`` (the cluster's job and end event), which :meth:`finish`
    returns and :meth:`items` lists in start order.
    """

    __slots__ = ("_jobs", "_seq", "releases", "entries")

    def __init__(self) -> None:
        #: uid -> (expected_end, start_seq, item)
        self._jobs: Dict[int, Tuple[float, int, Any]] = {}
        self._seq = 0
        #: finishes recorded so far; with :attr:`starts` it tells a
        #: policy whether the running set changed since its last pass.
        self.releases = 0
        #: sorted list of (expected_end, start_seq, cores)
        self.entries: List[Tuple[float, int, int]] = []

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def starts(self) -> int:
        """Starts recorded so far."""
        return self._seq

    def next_seq(self) -> int:
        """A sequence number larger than any start order in the mirror."""
        return self._seq + 1

    def items(self) -> List[Any]:
        """The running jobs' items, in start order."""
        return [record[2] for record in self._jobs.values()]

    def start(
        self, uid: int, expected_end: float, cores: int, item: Any = None
    ) -> None:
        """Record that job ``uid`` started, ending at ``expected_end``."""
        seq = self._seq = self._seq + 1
        self._jobs[uid] = (expected_end, seq, item)
        insort(self.entries, (expected_end, seq, cores))

    def finish(self, uid: int) -> Any:
        """Record that job ``uid`` left the machine (done/killed/cancelled);
        return the item it started with."""
        end, seq, item = self._jobs.pop(uid)
        entries = self.entries
        del entries[bisect_left(entries, (end, seq))]
        self.releases += 1
        return item


class AllocationProfile:
    """Mutable free-capacity step function over time breakpoints.

    ``free_at[i]`` is the number of free cores on the half-open interval
    ``[times[i], times[i+1])``; the last level extends to infinity.
    ``times[0]`` is *now*. Used by conservative backfilling to plan
    reservations: a reservation starts at a breakpoint and only
    lowers levels, and its end is inserted by bisection.
    """

    __slots__ = ("times", "free_at")

    def __init__(self, times: List[float], free_at: List[int]) -> None:
        self.times = times
        self.free_at = free_at

    @classmethod
    def from_entries(
        cls,
        now: float,
        free_cores: int,
        entries: Sequence[Tuple[float, int, int]],
    ) -> "AllocationProfile":
        """Profile from mirror entries sorted by (end, start_seq).

        Releases at or before ``now`` fold into the base level (matching
        the dict-merge semantics of the non-incremental profile build).
        The folded entries are a prefix of the end-sorted list, found
        with one bisect instead of a per-entry comparison.
        """
        lo = bisect_right(entries, (now, _MAX_SEQ))
        acc = free_cores
        for i in range(lo):
            acc += entries[i][2]
        times = [now]
        free_at = [acc]
        last = now
        for end, _seq, cores in entries[lo:]:
            acc += cores
            if end == last:
                free_at[-1] = acc
            else:
                times.append(end)
                free_at.append(acc)
                last = end
        return cls(times, free_at)

    def find_anchor(self, cores: int, walltime: float) -> Tuple[int, int]:
        """Earliest breakpoint where ``cores`` stay free for ``walltime``.

        Returns ``(i, j)``: the anchor is ``times[i]``, and ``j`` is where
        the window's end ``times[i] + walltime`` sits in ``times``
        (``bisect_left``), which is what :meth:`reserve` needs.

        Skip-jump search: when the window starting at breakpoint ``i``
        fails at some breakpoint ``k`` (``free_at[k] < cores``), every
        anchor up to ``k`` also fails — its window still contains ``k``
        — so the scan resumes at ``k + 1``. Each breakpoint is examined
        O(1) times, against the O(n^2) rescan of the naive loop.
        """
        times = self.times
        free_at = self.free_at
        n = len(times)
        i = 0
        while i < n:
            j = bisect_left(times, times[i] + walltime, i)
            if j == i or min(free_at[i:j]) >= cores:
                return i, j
            k = j - 1
            while free_at[k] >= cores:
                k -= 1
            i = k + 1
        return n - 1, n  # after everything ends, capacity is max

    def headroom(self, walltime: float) -> int:
        """The least free level over ``[times[0], times[0] + walltime)``,
        the first window :meth:`find_anchor` tries: a job of ``cores``
        fits there iff ``headroom(walltime) >= cores``."""
        times = self.times
        j = bisect_left(times, times[0] + walltime, 1)
        return min(self.free_at[:j])

    def reserve(self, i: int, j: int, cores: int, walltime: float) -> None:
        """Subtract ``cores`` over ``[times[i], times[i] + walltime)``,
        with ``(i, j)`` as :meth:`find_anchor` returns them.

        The window starts at a breakpoint, so only its end may need a new
        one; it inherits the level in effect there, ``free_at[j - 1]``.
        """
        times = self.times
        free_at = self.free_at
        end = times[i] + walltime
        if j == len(times) or times[j] != end:
            times.insert(j, end)
            free_at.insert(j, free_at[j - 1])
        free_at[i:j] = [level - cores for level in free_at[i:j]]
