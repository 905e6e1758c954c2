"""The health registry: one place where resource trust is decided.

The registry fuses every signal the middleware already produces into a
per-resource health state:

* **Bundle monitor subscriptions** (:meth:`HealthRegistry.watch`) — a
  threshold subscription per resource fires when the snapshot reports
  the cluster offline, tripping the breaker directly;
* **SAGA submission failures** — the pilot manager reports every
  rejected submission as a failure. An accepted one is not reported: a
  queued placeholder proves nothing yet, so a half-open breaker waits
  for the pilot's activation;
* **pilot lifecycles** (:meth:`observe_pilot`) — an ACTIVE transition is
  a success, a FAILED one a failure (quarantine fail-fasts excluded);
* **fault-log events** (:meth:`on_fault_event`) — observed outages and
  full link partitions are direct evidence and trip the breaker without
  waiting for the failure threshold.

Each resource gets a :class:`~repro.health.breaker.CircuitBreaker`, the
one record of its trust; every transition lands in the deterministic
health-event log (an :class:`~repro.telemetry.eventlog.EventLog`) and
the kernel trace, so the supervision timeline is reproducible
byte-for-byte from the seeds.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..des import Simulation
from ..lifecycle import PilotState
from ..telemetry.eventlog import Event, EventLog
from .breaker import BreakerPolicy, CircuitBreaker


class HealthRegistry:
    """Per-resource breakers and the supervision trace."""

    def __init__(
        self, sim: Simulation, breaker: Optional[BreakerPolicy] = None
    ) -> None:
        self.sim = sim
        #: breaker policy for all resources; None disables quarantining
        #: (the registry still keeps the trace).
        self.breaker_policy = breaker
        #: the supervision trace; its listeners see every health event
        #: (e.g. to poke a scheduler when a breaker closes).
        self.log = EventLog("health", empty="no supervision events", noun="events")
        self._breakers: Dict[str, CircuitBreaker] = {}
        sim.telemetry.metrics.gauge(
            "health.quarantined",
            lambda: sum(
                1 for brk in self._breakers.values() if brk.is_quarantined
            ),
        )
        sim.telemetry.metrics.gauge(
            "health.events", lambda: len(self.log)
        )

    # -- breakers ------------------------------------------------------------

    def breaker(self, resource: str) -> Optional[CircuitBreaker]:
        """The resource's breaker (created on first use; None if disabled)."""
        if self.breaker_policy is None:
            return None
        brk = self._breakers.get(resource)
        if brk is None:
            brk = CircuitBreaker(
                self.sim, resource, self.breaker_policy, on_event=self._emit
            )
            self._breakers[resource] = brk
        return brk

    def is_quarantined(self, resource: str) -> bool:
        brk = self._breakers.get(resource)
        return brk is not None and brk.is_quarantined

    def allow_submission(self, resource: str) -> bool:
        """Gate for the pilot manager (half-open hands out one probe slot)."""
        brk = self.breaker(resource)
        return True if brk is None else brk.allow_submission()

    def healthy(self, resources: Sequence[str]) -> Tuple[str, ...]:
        """The subset of ``resources`` not currently quarantined."""
        return tuple(r for r in resources if not self.is_quarantined(r))

    def quarantined(self, resources: Sequence[str]) -> Tuple[str, ...]:
        return tuple(r for r in resources if self.is_quarantined(r))

    # -- signal feeds --------------------------------------------------------

    def record_success(self, resource: str, kind: str = "success") -> None:
        brk = self.breaker(resource)
        if brk is not None:
            brk.record_success(kind)

    def record_failure(self, resource: str, kind: str = "failure") -> None:
        brk = self.breaker(resource)
        if brk is not None:
            brk.record_failure(kind)

    def observe_pilot(self, pilot) -> None:
        """Feed one pilot's lifecycle into its resource's health state."""
        pilot.add_callback(self._on_pilot_state)

    def _on_pilot_state(self, pilot, state) -> None:
        if state is PilotState.ACTIVE:
            self.record_success(pilot.resource, "pilot-active")
        elif state is PilotState.FAILED:
            # A quarantine fail-fast is the breaker talking to itself,
            # not evidence about the resource.
            if not getattr(pilot, "quarantine_rejected", False):
                self.record_failure(pilot.resource, "pilot-failed")

    def on_fault_event(self, event) -> None:
        """Fault-log listener: direct evidence trips the breaker at once."""
        brk = self.breaker(event.target)
        if brk is None:
            return
        details = dict(event.details)
        if event.kind == "outage":
            brk.trip("outage-observed")
        elif event.kind == "link-degrade" and details.get("factor") == 0.0:
            brk.trip("link-partition")

    # -- bundle monitoring ---------------------------------------------------

    def watch(self, bundle) -> None:
        """Subscribe to every resource of ``bundle``: offline snapshots trip
        the breaker (and keep it tripped while the outage persists)."""
        renotify_s = None
        if self.breaker_policy is not None:
            # re-trip a still-offline resource before its cooldown probes it
            renotify_s = self.breaker_policy.cooldown_s / 2.0
        for resource in bundle.resources():
            bundle.subscribe(
                resource,
                predicate=lambda snap: snap.compute.offline,
                callback=self._on_monitor_offline,
                renotify_s=renotify_s,
            )

    def _on_monitor_offline(self, sub_uid: int, snapshot) -> None:
        brk = self.breaker(snapshot.name)
        if brk is not None:
            brk.trip("monitor-offline")

    # -- event plumbing ------------------------------------------------------

    def record_event(self, kind: str, target: str, **details) -> Event:
        """Append a supervision event (watchdog, supervisor) to the trace."""
        tel = self.sim.telemetry
        if tel.enabled:
            tel.instant("health", kind, track=f"health/{target}", **details)
            tel.metrics.counter(f"health.event.{kind}").inc()
        return self.log.record(self.sim.now, kind, target, **details)

    def _emit(self, kind: str, resource: str, **details) -> None:
        self.record_event(kind, resource, **details)
