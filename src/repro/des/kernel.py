"""The discrete-event simulation kernel.

A :class:`Simulation` owns the simulated clock, the event heap, the
telemetry hub that records what the middleware does, and the registry of
seeded RNG streams. Everything in the substrate (clusters, networks,
pilots) is driven by one shared kernel so that the whole middleware
stack advances on a single, deterministic timeline.

An event is its heap entry: the list ``[time, priority, seq, callback,
args]``. The binary heap orders entries by list comparison, which
resolves in C on ``(time, priority, seq)``; ``seq`` is unique, so
comparison never reaches the callback. Ties in simulated time are broken
deterministically by that monotonically increasing sequence number, so
two runs with the same seeds replay the exact same event order.

The entry doubles as the event's handle. Its callback slot carries the
state: a callable while pending, ``None`` once cancelled or popped for
dispatch (the args are dropped then).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..telemetry import TelemetryHub
from .errors import SchedulingError, SimulationError
from .process import AllOf, Process, Timeout, Waitable
from .rng import RngStreams

#: A scheduled event: the heap entry ``[time, priority, seq, callback,
#: args]`` that :meth:`Simulation.call_at` returns as its handle.
EventHandle = List[Any]


#: Heaps smaller than this are never compacted: dispatch drains the few
#: dead entries cheaper than a rebuild would.
_COMPACT_MIN = 64


class Simulation:
    """Deterministic discrete-event simulation kernel.

    Events are dispatched in ``(time, priority, seq)`` order from one
    binary heap that only this class touches: :meth:`_push` is the one
    way on (``call_at``, ``call_in``, the process layer and the
    cluster's per-job events use it) and
    :meth:`_dispatch` the one way off. ``call_at`` and ``call_in``
    return the event's heap entry as its handle; pass it to
    :meth:`cancel`.

    Cancellation is lazy — dead entries keep their heap slot until they
    surface — but bounded: whenever cancelled entries outnumber live
    ones the heap is compacted, so a workload that schedules and cancels
    aggressively (watchdogs, outages, link churn) cannot retain an
    unbounded tail of dead events. Compaction cannot change dispatch
    order because event ordering is a strict total order on
    ``(time, priority, seq)``.
    """

    def __init__(self, seed: int = 0) -> None:
        self._heap: List[EventHandle] = []
        self._seq = 0  # events pushed; a plain int += 1 beats next(count())
        self._live = 0
        self._cancelled = 0  # dead entries still occupying heap slots
        self._cancels = 0  # cumulative: pushed = live + cancels + popped
        self._now = 0.0
        self._running = False
        self.events_processed = 0
        self.rng = RngStreams(seed)
        self.telemetry = TelemetryHub(
            clock=lambda: self._now, run_id=f"sim-{seed}"
        )
        metrics = self.telemetry.metrics
        metrics.gauge("kernel.heap-size", lambda: self._live)
        metrics.gauge(
            "kernel.events-processed", lambda: self.events_processed
        )
        metrics.gauge("kernel.virtual-time", lambda: self._now)
        # Deterministic heap counters: identical across serial/parallel
        # runs, so they may enter sampled snapshots (and hence telemetry
        # digests) safely.
        metrics.gauge("kernel.events-pushed", lambda: self._seq)
        metrics.gauge(
            "kernel.events-popped",
            lambda: self._seq - self._live - self._cancels,
        )
        metrics.gauge("kernel.events-cancelled", lambda: self._cancels)
        metrics.gauge("rng.draws", lambda: self.rng.draws)
        metrics.gauge("rng.streams", lambda: len(self.rng))

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------

    def call_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time} < now ({self._now})"
            )
        return self._push(time, callback, args, priority)

    def call_in(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` simulated seconds,
        at priority 0."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        return self._push(self._now + delay, callback, args)

    def cancel(self, event: EventHandle) -> None:
        """Lazily cancel a scheduled event; it stays in the heap but will
        be skipped. Cancelling a cancelled or fired event is a no-op."""
        callback = event[3]
        if callback is None:
            return
        event[3] = None
        event[4] = ()
        self._live -= 1
        self._cancelled += 1
        self._cancels += 1
        if self._cancelled > self._live and len(self._heap) >= _COMPACT_MIN:
            self._compact()

    def _push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple,
        priority: int = 0,
    ) -> EventHandle:
        """Insert ``callback(*args)`` at simulated ``time``; return its entry.

        No past-time check: the callers validate (the process layer and
        the cluster's arrival, dispatch and job-end events push at or
        after ``now`` by construction, and are hot). Only a NaN time,
        which would corrupt the heap order, is refused here.
        """
        if time != time:  # NaN guard
            raise SchedulingError("event time is NaN")
        seq = self._seq
        self._seq = seq + 1
        entry = [time, priority, seq, callback, args]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def _compact(self) -> None:
        """Rebuild the heap without dead entries (O(live), order-preserving).

        The rebuild is in place: the dispatch loop holds the heap list
        across callbacks, and a callback's cancel can compact.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[3] is not None]
        heapify(heap)
        self._cancelled = 0

    # -- execution -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue is empty or simulated ``until``.

        When ``until`` is given, events strictly after it remain queued and
        the clock is advanced to exactly ``until``. Returns the final time.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        if until is not None and until < self._now:
            raise SchedulingError(
                f"cannot run until {until} < now ({self._now})"
            )
        self._running = True
        try:
            self._dispatch(float("inf") if until is None else until, None)
            if until is not None:
                self._now = until
        finally:
            self._running = False
        return self._now

    def run_process(self, process: "Process", until: Optional[float] = None) -> Any:
        """Run until ``process`` completes; return its value or raise its error.

        Events at or before ``until`` are dispatched. If the process has
        not finished by then, later events stay queued, the clock is
        advanced to ``until`` (as :meth:`run` does; never backwards) and
        a :class:`SimulationError` is raised.
        """
        self._dispatch(float("inf") if until is None else until, process)
        if not process.triggered:
            if not self._live:
                raise SimulationError(
                    f"deadlock: event queue empty but process {process.name!r} "
                    "has not finished"
                )
            self._now = max(self._now, until)
            raise SimulationError(
                f"process {process.name!r} did not finish by t={until}"
            )
        if process.ok:
            return process.value
        raise process.exception  # type: ignore[misc]

    def _dispatch(self, limit: float, process: Optional["Process"]) -> None:
        """The kernel's one dispatch loop, and the only heap pop.

        Pops and runs events at or before ``limit`` until the heap has
        none left or, when given, ``process`` has triggered. This is the
        hottest path in the system (campaign repetitions pump tens of
        thousands of events through it), so the heap and telemetry
        lookups are hoisted. Cancelled entries (callback ``None``) are
        dropped as they surface; the first live entry past ``limit`` is
        pushed back, which cannot change the dispatch order. A live
        entry is marked fired before its call: its callback and args
        slots are cleared, so the handle keeps no reference to them.
        The profiler is re-read each event (it can be attached mid-run);
        when absent, dispatch is two attribute loads plus the call.
        """
        heap = self._heap  # compaction rebuilds this list in place
        telemetry = self.telemetry
        while heap and (process is None or not process.triggered):
            entry = heappop(heap)
            callback = entry[3]
            if callback is None:  # cancelled
                self._cancelled -= 1
                continue
            time = entry[0]
            if time > limit:
                heappush(heap, entry)
                return
            # mark fired and drop the references before the call
            args = entry[4]
            entry[3] = None
            entry[4] = ()
            self._live -= 1
            if time < self._now:
                raise SimulationError(
                    "event queue produced an event in the past"
                )
            self._now = time
            self.events_processed += 1
            prof = telemetry.profiler
            if prof is None:
                callback(*args)
            else:
                w0 = perf_counter()
                callback(*args)
                prof.record(callback, perf_counter() - w0)

    # -- process & waitable factories ----------------------------------------

    def process(
        self,
        generator: Generator[Waitable, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float) -> Timeout:
        """Create a waitable that fires after ``delay`` seconds."""
        return Timeout(self, delay)

    def all_of(self, children: Iterable[Waitable]) -> AllOf:
        """Waitable that fires when all children have fired."""
        return AllOf(self, children)
