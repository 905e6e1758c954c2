"""The discrete-event simulation kernel.

A :class:`Simulation` owns the simulated clock, the event queue, the
telemetry hub that records what the middleware does, and the registry of
seeded RNG streams. Everything in the substrate (clusters, networks,
pilots) is driven by one shared kernel so that the whole middleware
stack advances on a single, deterministic timeline.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

from ..telemetry import TelemetryHub
from .errors import SchedulingError, SimulationError
from .events import _CANCELLED, EventQueue, ScheduledEvent
from .process import AllOf, Process, Timeout, Waitable
from .rng import RngStreams


class Simulation:
    """Deterministic discrete-event simulation kernel.

    Events are dispatched in ``(time, priority, seq)`` order from one
    binary heap (:class:`~repro.des.events.EventQueue`).
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self._queue = EventQueue()
        self._now = float(start_time)
        self._running = False
        self.events_processed = 0
        self.rng = RngStreams(seed)
        self.telemetry = TelemetryHub(
            clock=lambda: self._now, run_id=f"sim-{seed}"
        )
        metrics = self.telemetry.metrics
        metrics.gauge("kernel.heap-size", lambda: len(self._queue))
        metrics.gauge(
            "kernel.events-processed", lambda: self.events_processed
        )
        metrics.gauge("kernel.virtual-time", lambda: self._now)
        # Deterministic queue counters: identical across serial/parallel
        # runs, so they may enter sampled snapshots (and hence telemetry
        # digests) safely.
        metrics.gauge("kernel.events-pushed", lambda: self._queue.pushed)
        metrics.gauge("kernel.events-popped", lambda: self._queue.popped)
        metrics.gauge("kernel.events-cancelled", lambda: self._queue.cancels)
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
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time} < now ({self._now})"
            )
        return self._queue.push(time, callback, args, priority)

    def call_in(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        return self._queue.push(self._now + delay, callback, args, priority)

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a scheduled event (safe to call more than once)."""
        self._queue.cancel(event)

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
            if not self._queue:
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
        """The kernel's one dispatch loop.

        Pops and runs events at or before ``limit`` until the queue has
        none left or, when given, ``process`` has triggered. This is the
        hottest path in the system (campaign repetitions pump tens of
        thousands of events through it), so the queue and telemetry
        lookups are hoisted. The profiler is re-read each event (it can
        be attached mid-run); when absent, dispatch is two attribute
        loads plus the call.
        """
        pop_until = self._queue.pop_until
        telemetry = self.telemetry
        while process is None or not process.triggered:
            ev = pop_until(limit)
            if ev is None:
                return
            time = ev.time
            if time < self._now:
                raise SimulationError(
                    "event queue produced an event in the past"
                )
            self._now = time
            self.events_processed += 1
            prof = telemetry.profiler
            callback = ev.callback
            if prof is None:
                callback(*ev.args)
            else:
                w0 = perf_counter()
                callback(*ev.args)
                prof.record(callback, perf_counter() - w0)
            # drop the fired event's references (memory hygiene)
            ev.callback = _CANCELLED
            ev.args = ()

    # -- process & waitable factories ----------------------------------------

    def process(
        self,
        generator: Generator[Waitable, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a waitable that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def all_of(self, children: Iterable[Waitable]) -> AllOf:
        """Waitable that fires when all children have fired."""
        return AllOf(self, children)
