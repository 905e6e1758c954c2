"""Event primitives for the discrete-event simulation kernel.

An event is its heap entry: the list ``[time, priority, seq, callback,
args]``. The kernel's binary heap orders entries by list comparison,
which resolves in C on ``(time, priority, seq)``; ``seq`` is unique, so
comparison never reaches the callback. Ties in simulated time are broken
deterministically by that monotonically increasing sequence number, so
two runs with the same seeds replay the exact same event order.

The entry doubles as the event's handle. Its callback slot carries the
state: a callable while pending, ``None`` once cancelled, and
:data:`_FIRED` once popped for dispatch (the args are dropped then).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

from .errors import SchedulingError

#: A scheduled event: the heap entry ``[time, priority, seq, callback,
#: args]`` that :meth:`EventQueue.push` returns as its handle.
EventHandle = List[Any]


def _FIRED(*args: Any) -> None:
    """Callback slot of an entry popped for dispatch."""


#: Heaps smaller than this are never compacted: draining the few dead
#: entries on pop is cheaper than rebuilding the heap.
_COMPACT_MIN = 64


class EventQueue:
    """Deterministic priority queue of event entries.

    Cancellation is lazy — dead entries keep their heap slot until they
    surface — but bounded: whenever cancelled entries outnumber live
    ones the heap is compacted, so a workload that schedules and cancels
    aggressively (watchdogs, outages, link churn) cannot retain an
    unbounded tail of dead events. Compaction cannot change pop order
    because event ordering is a strict total order on
    ``(time, priority, seq)``.
    """

    def __init__(self) -> None:
        self._heap: List[EventHandle] = []
        self._seq = 0  # plain int: += 1 beats next(count()) on the hot path
        self._live = 0
        self._cancelled = 0  # dead entries still occupying heap slots
        #: Cumulative cancel count, surfaced through the telemetry registry.
        self.cancels = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def pushed(self) -> int:
        """Events pushed so far: each took one sequence number."""
        return self._seq

    @property
    def popped(self) -> int:
        """Events popped for dispatch so far: every pushed event is live,
        cancelled or popped."""
        return self._seq - self._live - self.cancels

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple = (),
        priority: int = 0,
    ) -> EventHandle:
        """Insert a callback at simulated ``time`` and return its entry."""
        if time != time:  # NaN guard
            raise SchedulingError("event time is NaN")
        seq = self._seq
        self._seq = seq + 1
        entry = [time, priority, seq, callback, args]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def cancel(self, entry: EventHandle) -> None:
        """Lazily cancel ``entry``; it stays in the heap but will be skipped.

        Cancelling an already-cancelled or already-fired event is a no-op.
        """
        callback = entry[3]
        if callback is None or callback is _FIRED:
            return
        entry[3] = None
        entry[4] = ()
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
        heap[:] = [entry for entry in heap if entry[3] is not None]
        heapify(heap)
        self._cancelled = 0

    def pop(self) -> tuple:
        """Remove and fire the next live event; see :meth:`pop_until`."""
        popped = self.pop_until(float("inf"))
        if popped is None:
            raise IndexError("pop from empty EventQueue")
        return popped

    def pop_until(self, limit: float) -> Optional[tuple]:
        """Pop the next live event with ``time <= limit``, or None.

        The entry is marked fired, as the kernel's dispatch loop marks
        it; the return value is the tuple of what it held,
        ``(time, priority, seq, callback, args)``.
        """
        heap = self._heap
        while heap and heap[0][3] is None:
            heappop(heap)
            self._cancelled -= 1
        if not heap or heap[0][0] > limit:
            return None
        entry = heappop(heap)
        popped = tuple(entry)
        entry[3] = _FIRED
        entry[4] = ()
        self._live -= 1
        return popped
