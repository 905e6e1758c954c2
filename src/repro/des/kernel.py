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
from .process import AllOf, AnyOf, Process, Signal, Timeout, Waitable
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

    def step(self) -> bool:
        """Dispatch the next event. Returns False if the queue is empty."""
        ev = self._queue.pop_until(float("inf"))
        if ev is None:
            return False
        if ev.time < self._now:
            raise SimulationError("event queue produced an event in the past")
        self._now = ev.time
        self.events_processed += 1
        prof = self.telemetry.profiler
        callback = ev.callback
        if prof is None:
            callback(*ev.args)
        else:
            w0 = perf_counter()
            callback(*ev.args)
            prof.record(callback, perf_counter() - w0)
        ev.release()
        return True

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
        # The dispatch loop is the hottest path in the system: campaign
        # repetitions pump tens of thousands of events through it, so it
        # inlines step() with the queue/telemetry lookups hoisted. The
        # profiler is re-read each event (it can be attached mid-run);
        # when absent, dispatch is two attribute loads plus the call.
        limit = float("inf") if until is None else until
        queue = self._queue
        pop_until = queue.pop_until
        telemetry = self.telemetry
        try:
            while True:
                ev = pop_until(limit)
                if ev is None:
                    break
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
                # inlined ev.release() - a method call per event adds up
                ev.callback = _CANCELLED
                ev.args = ()
            if until is not None:
                self._now = until
        finally:
            self._running = False
        return self._now

    def run_process(self, process: "Process", until: Optional[float] = None) -> Any:
        """Run until ``process`` completes; return its value or raise its error."""
        # Same inlined dispatch as run(); the extra per-event work is only
        # the ``triggered`` check and the optional deadline comparison.
        inf = float("inf")
        pop_until = self._queue.pop_until
        telemetry = self.telemetry
        while not process.triggered:
            if until is not None and self._now >= until:
                raise SimulationError(
                    f"process {process.name!r} did not finish by t={until}"
                )
            ev = pop_until(inf)
            if ev is None:
                raise SimulationError(
                    f"deadlock: event queue empty but process {process.name!r} "
                    "has not finished"
                )
            if ev.time < self._now:
                raise SimulationError(
                    "event queue produced an event in the past"
                )
            self._now = ev.time
            self.events_processed += 1
            prof = telemetry.profiler
            callback = ev.callback
            if prof is None:
                callback(*ev.args)
            else:
                w0 = perf_counter()
                callback(*ev.args)
                prof.record(callback, perf_counter() - w0)
            # inlined ev.release() - a method call per event adds up
            ev.callback = _CANCELLED
            ev.args = ()
        if process.ok:
            return process.value
        raise process.exception  # type: ignore[misc]

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

    def event(self) -> Signal:
        """Create a one-shot signal waitable."""
        return Signal(self)

    def any_of(self, children: Iterable[Waitable]) -> AnyOf:
        """Waitable that fires when any child fires."""
        return AnyOf(self, children)

    def all_of(self, children: Iterable[Waitable]) -> AllOf:
        """Waitable that fires when all children have fired."""
        return AllOf(self, children)
