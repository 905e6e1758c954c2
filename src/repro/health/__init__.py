"""Resource health supervision: notice damage, change decisions.

The fault subsystem (:mod:`repro.faults`) makes things go wrong
deterministically; this package makes the middleware *react*. It closes
the loop the paper's late-binding argument depends on: sampling several
queues only wins if the middleware stops feeding resources that turned
out to be degraded or flapping.

* :class:`HealthRegistry` — per-resource health state fed by Bundle
  monitor subscriptions, SAGA submission outcomes, pilot lifecycles and
  fault-log events; keeps a deterministic health-event log (an
  :class:`~repro.telemetry.eventlog.EventLog`) for reproducibility checks.
* :class:`CircuitBreaker` — closed -> open -> half-open quarantine per
  resource; open resources receive no pilots and no units until a probe
  pilot succeeds.
* :class:`UnitWatchdog` — per-unit progress deadlines that catch *hung*
  units (stalled without reaching a final state — invisible to
  pilot-death recovery) and reschedule them.
* :class:`DeadlineSupervisor` — an end-to-end TTC budget: re-plans over
  only-healthy resources mid-run and, when the budget is exhausted,
  degrades to a partial result with explicit accounting.
"""

from .breaker import BreakerPolicy, BreakerState, CircuitBreaker
from .registry import HealthRegistry
from .supervisor import DeadlineSupervisor, ReplanEvent, SupervisionPolicy
from .watchdog import UnitWatchdog

__all__ = [
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "DeadlineSupervisor",
    "HealthRegistry",
    "ReplanEvent",
    "SupervisionPolicy",
    "UnitWatchdog",
]
