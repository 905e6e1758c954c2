"""The simulated HPC resource: queue + core count + batch scheduler.

A :class:`Cluster` accepts :class:`~repro.cluster.job.BatchJob`
submissions and a background workload's arrival stream, keeps the jobs
in a priority-ordered pending queue, and asks its
scheduling policy which to start whenever the state changes (a submission
arrives or a job ends). Started jobs hold cores until they complete or
hit their walltime limit. The machine is accounted as a free-core count:
schedulers plan on cores and requested walltimes, and nothing in the
simulation reads which node a job landed on, so there is no per-node
placement.

Every transition is announced to the cluster's listeners, and
completed-job wait times are kept in a history ring that the Bundle
layer uses for its predictive interface.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set, Tuple,
)

from ..des import EventHandle, Simulation
from .job import BatchJob, JobState
from .schedulers import (
    BatchScheduler,
    EasyBackfillScheduler,
    RunningMirror,
    SchedulerView,
)

if TYPE_CHECKING:
    from .workload import BackgroundWorkload


class SubmissionError(Exception):
    """Raised when a job can never run on this resource."""


class AllocationError(Exception):
    """Raised when a dispatch pass picks more cores than are free (a
    scheduler bug)."""


# The job states as module globals: reading an enum member off its
# class costs several times a global lookup, and every job passes
# through these methods four times.
_NEW, _PENDING, _RUNNING = JobState.NEW, JobState.PENDING, JobState.RUNNING
_COMPLETED, _TIMEOUT = JobState.COMPLETED, JobState.TIMEOUT
_CANCELLED, _FAILED = JobState.CANCELLED, JobState.FAILED

#: Bucket boundaries for the scheduler-pass-length histogram (pending
#: jobs examined per pass); shared so every cluster observes into the
#: same instrument without a boundary conflict.
SCHEDULER_PASS_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)


class Cluster:
    """A space-shared HPC resource driven by the simulation kernel.

    Jobs reach the queue after ``submit_overhead`` seconds by one of two
    routes: :meth:`submit` (pilots, ``prime()``, trace replay) schedules
    the queueing of a job built by the caller, and
    :meth:`queue_arrivals` queues a background workload's arrivals,
    building each job at its own queueing event.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        nodes: int,
        cores_per_node: int,
        scheduler: Optional[BatchScheduler] = None,
        submit_overhead: float = 1.0,
        dispatch_interval: float = 0.0,
        wait_history_size: int = 512,
    ) -> None:
        if nodes <= 0 or cores_per_node <= 0:
            raise ValueError("nodes and cores_per_node must be positive")
        self.sim = sim
        self.name = name
        self.nodes = nodes
        self.cores_per_node = cores_per_node
        self.total_cores = nodes * cores_per_node
        #: cores not held by a running job; changed only by _start and
        #: _release, so free + running cores == total_cores always.
        self.free_cores = self.total_cores
        self.scheduler = scheduler or EasyBackfillScheduler()
        self.submit_overhead = float(submit_overhead)
        #: minimum seconds between scheduler passes. Production resource
        #: managers schedule in periodic cycles (tens of seconds to a few
        #: minutes); 0 restores pure event-driven dispatch.
        self.dispatch_interval = float(dispatch_interval)
        self._last_dispatch = -float("inf")

        self._pending: List[BatchJob] = []
        #: uids of the queued jobs, for O(1) pick validation.
        self._pending_uids: Set[int] = set()
        # The one record of the running jobs: the end-sorted mirror the
        # scheduler reads, patched at start/release so dispatch never
        # re-sorts it, holding each job with its end event.
        self._run_mirror = RunningMirror()
        self._dispatch_scheduled = False
        self._offline_until: float = -float("inf")
        self._listeners: List[Callable[[BatchJob, JobState, JobState], None]] = []
        # Tuple snapshot iterated on the (hot) transition path; rebuilt
        # whenever a listener registers so mid-iteration registration
        # cannot perturb an in-flight transition.
        self._listener_snapshot: tuple = ()

        #: (finish_time, wait_seconds, cores) of recently started jobs.
        self.wait_history: Deque[Tuple[float, float, int]] = deque(
            maxlen=wait_history_size
        )
        self.completed_jobs = 0
        self.killed_jobs = 0

    # -- public interface ------------------------------------------------------

    @property
    def utilization(self) -> float:
        """Fraction of cores held by running jobs."""
        return (self.total_cores - self.free_cores) / self.total_cores

    @property
    def queue_length(self) -> int:
        return len(self._pending)

    @property
    def queued_core_seconds(self) -> float:
        """Work (cores x requested walltime) waiting in the queue."""
        return sum(j.cores * j.walltime for j in self._pending)

    def queue_composition(self) -> Dict[str, int]:
        """Pending jobs by kind ("background", "pilot", ...).

        Part of the bundle's resource information: "queue state, queue
        composition, and types of jobs already scheduled for execution".
        """
        out: Dict[str, int] = {}
        for job in self._pending:
            out[job.kind] = out.get(job.kind, 0) + 1
        return out

    def pending_jobs(self) -> List[BatchJob]:
        return list(self._pending)

    def running_jobs(self) -> List[BatchJob]:
        return [job for job, _ in self._run_mirror.items()]

    def add_listener(
        self, fn: Callable[[BatchJob, JobState, JobState], None]
    ) -> None:
        """Observe every job state transition on this resource."""
        self._listeners.append(fn)
        self._listener_snapshot = tuple(self._listeners)

    def submit(self, job: BatchJob) -> BatchJob:
        """Queue ``job``; it becomes PENDING after the submit overhead."""
        if job.state is not _NEW:
            raise SubmissionError(f"{job.name} already submitted ({job.state})")
        if job.cores > self.total_cores:
            raise SubmissionError(
                f"{job.name} requests {job.cores} cores; {self.name} has "
                f"{self.total_cores}"
            )
        self.sim.call_in(self.submit_overhead, self._enqueue, job)
        return job

    def queue_arrivals(self, workload: "BackgroundWorkload") -> None:
        """Queue ``workload``'s arrival stream, one kernel event per job.

        Each accepted arrival is queued at its arrival instant plus the
        submit overhead, as :meth:`submit` would queue it, but the job is
        drawn at that event and the same event pulls the next arrival:
        no process, timeout or submit hop per job, and no event for a
        candidate the thinning rejects. Arrivals only move forward, so
        each is pushed at or after ``now`` without ``call_at``'s check.
        """
        arrival = workload.next_arrival()
        self.sim._push(
            arrival + self.submit_overhead, self._arrive, (workload, arrival)
        )

    def cancel(self, job: BatchJob) -> None:
        """Remove a pending job or kill a running one."""
        self._end(job, _CANCELLED)

    def kill_job(self, job: BatchJob) -> None:
        """Abort one job as a *resource* failure (node crash, OOM kill).

        Unlike :meth:`cancel`, the job ends FAILED — the state the SAGA
        layer maps to a pilot death, which is what the fault injector
        needs to kill a pilot mid-run.
        """
        self._end(job, _FAILED)

    def _end(self, job: BatchJob, state: JobState) -> None:
        """End a NEW, PENDING or RUNNING job in ``state`` (a final job is
        left alone). Removing a queued or running job can let the jobs
        behind it start, so both schedule a dispatch pass."""
        old = job.state
        if old is _PENDING:
            self._pending.remove(job)
            self._pending_uids.discard(job.uid)
        elif old is _RUNNING:
            self.sim.cancel(self._release(job))
            if state is _FAILED:
                self.killed_jobs += 1
        elif old is not _NEW:
            return
        self._transition(job, state)
        if old is not _NEW:
            self._schedule_dispatch()

    @property
    def is_offline(self) -> bool:
        return self.sim.now < self._offline_until

    def set_offline(self, duration: float) -> None:
        """Inject an outage: kill every running job, freeze dispatch.

        Running jobs fail immediately (as in an unplanned node or
        filesystem outage); queued jobs survive and dispatch resumes
        ``duration`` seconds from now. Repeated calls extend the outage.
        """
        if duration <= 0:
            raise ValueError("outage duration must be positive")
        self._offline_until = max(
            self._offline_until, self.sim.now + duration
        )
        self.sim.telemetry.instant(
            "cluster", "offline", track=f"cluster/{self.name}",
            until=self._offline_until,
        )
        for job, _ in self._run_mirror.items():
            self.sim.cancel(self._release(job))
            self.killed_jobs += 1
            self._transition(job, _FAILED)
        self.sim.call_at(self._offline_until, self._back_online)

    def _back_online(self) -> None:
        if self.is_offline:
            return  # a later outage extended the window
        self.sim.telemetry.instant(
            "cluster", "online", track=f"cluster/{self.name}"
        )
        self._schedule_dispatch()

    # -- internal machinery ----------------------------------------------------

    def _enqueue(self, job: BatchJob) -> None:
        if job.state in (_CANCELLED, _FAILED):
            return  # cancelled/killed during the submit overhead window
        job.submit_time = self.sim._now  # property bypass on the hot path
        self._pending_uids.add(job.uid)
        # Appending keeps the queue in arrival order by construction
        # (removals preserve relative order), so it is never sorted.
        self._pending.append(job)
        self._transition(job, _PENDING)
        self._schedule_dispatch()

    def _arrive(self, workload: "BackgroundWorkload", arrival: float) -> None:
        """Queue the job that arrived at ``arrival``, then pull the next."""
        job = workload.job_due(arrival)
        if job is None:
            return  # arrived after workload.stop(); the stream ends
        self._enqueue(job)
        self.queue_arrivals(workload)

    def _schedule_dispatch(self) -> None:
        """Coalesce dispatches: one scheduler pass per cycle at most."""
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            now = self.sim._now
            floor = self._last_dispatch + self.dispatch_interval
            # priority=1 so all same-instant submissions/completions
            # land first; never before now, so call_at's check is moot
            self.sim._push(
                floor if floor > now else now, self._dispatch, (), 1
            )

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        now = self.sim._now
        if now < self._offline_until:
            return  # _back_online re-arms dispatching
        self._last_dispatch = now
        if not self._pending:
            return
        # The view aliases live queue state (see SchedulerView): select
        # completes before _run_picks mutates anything, so no copies.
        view = SchedulerView(
            now, self.free_cores, self._pending, self._run_mirror
        )
        tel = self.sim.telemetry
        if not tel.enabled:
            # Fast path: no span bookkeeping, no pass metrics. This is
            # the configuration campaigns run in, and the span/metric
            # plumbing costs as much as a small scheduler pass.
            self._run_picks(self.scheduler.select(view))
            return
        with tel.span(
            "cluster",
            "scheduler-pass",
            track=f"cluster/{self.name}",
            policy=self.scheduler.name,
            pending=len(self._pending),
            free_cores=self.free_cores,
        ):
            self._run_picks(self.scheduler.select(view))
        tel.metrics.counter("cluster.scheduler-passes").inc()
        tel.metrics.histogram(
            "cluster.scheduler-pass-length", SCHEDULER_PASS_BUCKETS
        ).observe(len(view.pending))

    def _run_picks(self, picks: List[BatchJob]) -> None:
        """Start one dispatch pass's picks, validated whole first.

        A faulty policy (a duplicate or non-pending pick, or more cores
        than are free) raises before any job starts, so the cluster is
        left exactly as the pass found it.
        """
        if not picks:
            return
        # The uid set mirrors the pending queue exactly, so membership
        # is O(1) instead of an O(queue) scan.
        pending = self._pending_uids
        seen = set()
        cores = 0
        for job in picks:
            uid = job.uid
            if uid in seen:
                raise RuntimeError(
                    f"scheduler {self.scheduler.name} picked {job.name} twice"
                )
            if uid not in pending:
                raise RuntimeError(
                    f"scheduler picked non-pending job {job.name}"
                )
            seen.add(uid)
            cores += job.cores
        if cores > self.free_cores:
            raise AllocationError(
                f"scheduler {self.scheduler.name} picked {cores} cores; "
                f"only {self.free_cores} free"
            )
        for job in picks:
            self._start(job)

    def _start(self, job: BatchJob) -> None:
        """Start a pending job; the caller has checked it may start."""
        self._pending.remove(job)
        uid = job.uid
        self._pending_uids.remove(uid)
        cores = job.cores
        self.free_cores -= cores
        now = self.sim._now
        job.start_time = now
        runtime = job.runtime
        walltime = job.walltime
        timed_out = runtime > walltime
        # pushed as call_in would push it: runtime and walltime are >= 0
        end_event = self.sim._push(
            now + (walltime if timed_out else runtime),
            self._finish, (job, timed_out),
        )
        self._run_mirror.start(uid, now + walltime, cores, (job, end_event))
        self.wait_history.append(
            (now, now - (job.submit_time or 0.0), cores)
        )
        self._transition(job, _RUNNING)

    def _finish(self, job: BatchJob, timed_out: bool) -> None:
        self._release(job)
        if timed_out:
            self.killed_jobs += 1
            self._transition(job, _TIMEOUT)
        else:
            self.completed_jobs += 1
            self._transition(job, _COMPLETED)
        self._schedule_dispatch()

    def _release(self, job: BatchJob) -> EventHandle:
        """Take a running job off the machine and free its cores.

        Returns the job's end event, which the caller cancels unless it
        is the event being handled.
        """
        _, end_event = self._run_mirror.finish(job.uid)
        self.free_cores += job.cores
        job.end_time = self.sim._now
        return end_event

    def _transition(self, job: BatchJob, new_state: JobState) -> None:
        old = job.state
        job.advance(new_state)
        for fn in self._listener_snapshot:
            fn(job, old, new_state)
