"""Per-resource circuit breakers: quarantine flapping resources.

A breaker follows the classic three-state machine:

* **closed** — the resource is trusted; failures are counted and
  ``failure_threshold`` consecutive ones open the breaker;
* **open** — the resource is quarantined: the pilot manager rejects
  submissions to it and the unit schedulers stop binding work to its
  pilots. After ``cooldown_s`` the breaker moves to half-open;
* **half-open** — exactly one *probe* submission is let through. If the
  probe pilot becomes active the breaker closes; if it fails (or the
  resource trips again) the breaker re-opens and the cooldown restarts.

The breaker can also be *tripped* directly — an observed outage or full
link partition is proof enough, no threshold needed. All transitions are
reported through the ``on_event`` hook; the registry routes them into
the health-event trace, from which
:func:`repro.core.instrumentation.quarantine_seconds` derives the
``t_quarantined`` TTC component.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from ..des import Simulation


class BreakerState(str, enum.Enum):
    """The three states of a resource circuit breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerPolicy:
    """When a resource is quarantined and how it earns trust back: one
    successful probe closes a half-open breaker."""

    #: consecutive failures (pilot deaths, rejected submissions) that
    #: open the breaker.
    failure_threshold: int = 3
    #: quarantine duration before a probe is allowed (open -> half-open).
    cooldown_s: float = 1800.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")


class CircuitBreaker:
    """One resource's quarantine state machine."""

    def __init__(
        self,
        sim: Simulation,
        resource: str,
        policy: Optional[BreakerPolicy] = None,
        on_event: Optional[Callable[..., None]] = None,
    ) -> None:
        self.sim = sim
        self.resource = resource
        self.policy = policy or BreakerPolicy()
        #: called as ``on_event(kind, resource, **details)`` on transitions.
        self.on_event = on_event
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probe_inflight = False
        #: bumped on every open, so stale cooldown callbacks are ignored.
        self._generation = 0

    # -- observation ---------------------------------------------------------

    @property
    def is_quarantined(self) -> bool:
        """True while the resource must receive no new work (open state)."""
        return self.state is BreakerState.OPEN

    def allow_submission(self) -> bool:
        """May a pilot be submitted to this resource right now?

        Closed: yes. Open: no. Half-open: the first caller takes the
        single probe slot; further submissions are rejected until the
        probe resolves.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            return False
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        self._emit("breaker-probe")
        return True

    # -- feeds ---------------------------------------------------------------

    def record_success(self, kind: str = "") -> None:
        """A pilot on this resource became active / a submission landed."""
        if self.state is BreakerState.CLOSED:
            self._consecutive_failures = 0
        elif self.state is BreakerState.HALF_OPEN:
            self._close(kind or "probe-succeeded")
        # open: stale callbacks from pre-quarantine pilots carry no news

    def record_failure(self, kind: str = "") -> None:
        """A pilot on this resource died / a submission was rejected."""
        if self.state is BreakerState.CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.policy.failure_threshold:
                self._open(kind or "failure-threshold")
        elif self.state is BreakerState.HALF_OPEN:
            self._open(kind or "probe-failed")
        # open: already quarantined

    def trip(self, reason: str) -> None:
        """Open immediately on direct evidence (outage, link partition)."""
        if self.state is not BreakerState.OPEN:
            self._open(reason)

    # -- transitions ---------------------------------------------------------

    def _open(self, reason: str) -> None:
        self.state = BreakerState.OPEN
        self._consecutive_failures = 0
        self._probe_inflight = False
        self._generation += 1
        self.sim.call_in(
            self.policy.cooldown_s, self._to_half_open, self._generation
        )
        self._emit("breaker-open", reason=reason)

    def _to_half_open(self, generation: int) -> None:
        if generation != self._generation or self.state is not BreakerState.OPEN:
            return  # a later trip re-opened (or something closed) the breaker
        self.state = BreakerState.HALF_OPEN
        self._emit("breaker-half-open")

    def _close(self, reason: str) -> None:
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probe_inflight = False
        self._emit("breaker-close", reason=reason)

    def _emit(self, kind: str, **details) -> None:
        if self.on_event is not None:
            self.on_event(kind, self.resource, **details)
