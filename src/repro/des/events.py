"""Event primitives for the discrete-event simulation kernel.

The kernel operates on a binary heap of :class:`ScheduledEvent` records.
Ties in simulated time are broken deterministically by a monotonically
increasing sequence number, so two runs with the same seeds replay the
exact same event order.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Optional

from .errors import SchedulingError

#: Sentinel callback used for cancelled/fired events still holding a slot.
_CANCELLED: Callable[..., None] = lambda *a, **k: None  # noqa: E731

#: Heaps smaller than this are never compacted: draining the few dead
#: entries on pop is cheaper than rebuilding the heap.
_COMPACT_MIN = 64


class ScheduledEvent:
    """A callback scheduled at a simulated time.

    Ordering is by ``(time, priority, seq)``; ``callback`` and ``args``
    take no part in comparisons. Hand-rolled (slots plus a direct
    ``__lt__``) rather than a dataclass: heap sifts compare events
    hundreds of thousands of times per campaign repetition, and the
    generated tuple-building comparison dominated that profile.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "args", "cancelled", "fired",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        #: True once cancelled; the kernel skips cancelled entries lazily.
        self.cancelled = False
        #: True once popped for dispatch; cancelling after that is a no-op.
        self.fired = False

    def __lt__(self, other: "ScheduledEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "cancelled" if self.cancelled
            else "fired" if self.fired
            else "pending"
        )
        return (
            f"<ScheduledEvent t={self.time} priority={self.priority} "
            f"seq={self.seq} {state}>"
        )

    def cancel(self) -> None:
        """Mark the event so the kernel will skip it.

        Cancelling an already-fired event is a no-op: the kernel releases
        the callback reference after dispatch, and we only flip a flag here.
        """
        if self.fired:
            return
        self.cancelled = True
        self.callback = _CANCELLED
        self.args = ()


class EventQueue:
    """Deterministic priority queue of :class:`ScheduledEvent` records.

    Heap entries are ``(time, priority, seq, event)`` tuples rather than
    the events themselves: tuple comparison resolves entirely in C, so
    heap sifts never call back into :meth:`ScheduledEvent.__lt__`. The
    ``seq`` component is unique, so comparison never reaches the event
    slot and the ordering is the same strict total order.

    Cancellation is lazy — dead entries keep their heap slot until they
    surface — but bounded: whenever cancelled entries outnumber live
    ones the heap is compacted, so a workload that schedules and cancels
    aggressively (watchdogs, outages, link churn) cannot retain an
    unbounded tail of dead events. Compaction cannot change pop order
    because event ordering is a strict total order on
    ``(time, priority, seq)``.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0  # plain int: += 1 beats next(count()) on the hot path
        self._live = 0
        self._cancelled = 0  # dead entries still occupying heap slots
        #: Cumulative counters surfaced through the telemetry registry.
        self.pushed = 0
        self.cancels = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def popped(self) -> int:
        """Events popped for dispatch so far: every pushed event is live,
        cancelled or popped."""
        return self.pushed - self._live - self.cancels

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple = (),
        priority: int = 0,
    ) -> ScheduledEvent:
        """Insert a callback at simulated ``time`` and return its handle."""
        if time != time:  # NaN guard
            raise SchedulingError("event time is NaN")
        seq = self._seq
        self._seq = seq + 1
        ev = ScheduledEvent(time, priority, seq, callback, args)
        heappush(self._heap, (time, priority, seq, ev))
        self._live += 1
        self.pushed += 1
        return ev

    def cancel(self, event: ScheduledEvent) -> None:
        """Lazily cancel ``event``; it stays in the heap but will be skipped.

        Cancelling an already-cancelled or already-fired event is a no-op.
        """
        if event.cancelled or event.fired:
            return
        event.cancel()
        self._live -= 1
        self._cancelled += 1
        self.cancels += 1
        if self._cancelled > self._live and len(self._heap) >= _COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without dead entries (O(live), order-preserving).

        The rebuild is in place: the kernel's dispatch loop holds the
        heap list across callbacks, and a callback's cancel can compact.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapify(heap)
        self._cancelled = 0

    def pop(self) -> ScheduledEvent:
        """Remove and return the next live event."""
        ev = self.pop_until(float("inf"))
        if ev is None:
            raise IndexError("pop from empty EventQueue")
        return ev

    def pop_until(self, limit: float) -> Optional[ScheduledEvent]:
        """Pop the next live event with ``time <= limit``, or None.

        The kernel's dispatch loop uses this to merge the peek and the
        pop into a single pass over the heap head.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._cancelled -= 1
        if not heap or heap[0][0] > limit:
            return None
        ev = heappop(heap)[3]
        ev.fired = True
        self._live -= 1
        return ev
