"""The shared-resource primitive built on the process layer.

:class:`CapacityResource` models a pool of interchangeable units (the
cores inside a pilot agent): processes acquire some units, hold them, and
release them.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from .errors import ProcessError
from .process import Signal

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulation


class Acquisition(Signal):
    """Waitable handle for a pending or granted capacity request."""

    def __init__(self, resource: "CapacityResource", amount: int) -> None:
        super().__init__(resource.sim)
        self.resource = resource
        self.amount = amount
        self.granted = False

    def release(self) -> None:
        """Return the held units to the pool."""
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        self.resource._cancel(self)


class CapacityResource:
    """A counted pool of identical units with FIFO granting.

    Grants are strictly FIFO: a large request at the head blocks smaller
    requests behind it (no bypass), which models a conservative in-order
    slot allocator. Components that want backfill behaviour implement it a
    level above (see the pilot agent's backfill scheduler).
    """

    def __init__(self, sim: "Simulation", capacity: int, name: str = "resource") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = int(capacity)
        self.in_use = 0
        self._waiting: Deque[Acquisition] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self, amount: int = 1) -> Acquisition:
        """Request ``amount`` units; returns a waitable granted in FIFO order."""
        if amount <= 0:
            raise ValueError(f"acquire amount must be positive, got {amount}")
        if amount > self.capacity:
            raise ValueError(
                f"request for {amount} exceeds capacity {self.capacity} "
                f"of {self.name!r}"
            )
        req = Acquisition(self, amount)
        self._waiting.append(req)
        self._grant()
        return req

    def release(self, acquisition: Acquisition) -> None:
        """Return the units held by ``acquisition``."""
        if not acquisition.granted:
            raise ProcessError("cannot release an ungranted acquisition")
        acquisition.granted = False
        self.in_use -= acquisition.amount
        if self.in_use < 0:
            raise ProcessError(f"{self.name!r}: negative in_use after release")
        self._grant()

    def _cancel(self, acquisition: Acquisition) -> None:
        if acquisition.granted:
            raise ProcessError("cannot cancel a granted acquisition; release it")
        try:
            self._waiting.remove(acquisition)
        except ValueError:
            pass

    def _grant(self) -> None:
        while self._waiting and self._waiting[0].amount <= self.available:
            req = self._waiting.popleft()
            req.granted = True
            self.in_use += req.amount
            req.succeed(req)

