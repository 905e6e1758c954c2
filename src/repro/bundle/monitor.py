"""The bundle monitoring interface: threshold subscriptions over resources.

Users subscribe to predicates over a resource's state ("notify me when
average utilization drops below X for at least Y seconds"); the monitor
samples the resource periodically on the simulation kernel and fires the
subscriber's callback when the condition holds for the dwell period.
This is the mechanism the paper sketches for triggering scheduling
decisions such as adding resources to an application.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..des import Simulation
from .representation import ResourceRepresentation

#: predicate over a snapshot -> True when the interesting condition holds.
Predicate = Callable[[ResourceRepresentation], bool]
#: subscriber callback: (subscription_id, snapshot that satisfied it).
Callback = Callable[[int, ResourceRepresentation], None]

_sub_ids = itertools.count(1)

#: simulated seconds between two samples of the subscribed resources.
INTERVAL_S = 60.0


@dataclass
class Subscription:
    """One threshold subscription."""

    uid: int
    resource: str
    predicate: Predicate
    callback: Callback
    #: condition must hold continuously for this long before notifying.
    dwell_s: float = 0.0
    #: re-notify after this long if the condition keeps holding; None = once.
    renotify_s: Optional[float] = None

    _held_since: Optional[float] = field(default=None, repr=False)
    _last_notified: Optional[float] = field(default=None, repr=False)


class ResourceMonitor:
    """Samples resource snapshots and drives subscriptions."""

    def __init__(
        self,
        sim: Simulation,
        snapshot_fn: Callable[[str], ResourceRepresentation],
    ) -> None:
        self.sim = sim
        self.snapshot_fn = snapshot_fn
        self._subs: Dict[int, Subscription] = {}
        self.notifications = 0
        self._running = False

    def subscribe(
        self,
        resource: str,
        predicate: Predicate,
        callback: Callback,
        dwell_s: float = 0.0,
        renotify_s: Optional[float] = None,
    ) -> Subscription:
        """Register a subscription; starts the sampling loop if needed."""
        sub = Subscription(
            uid=next(_sub_ids),
            resource=resource,
            predicate=predicate,
            callback=callback,
            dwell_s=dwell_s,
            renotify_s=renotify_s,
        )
        self._subs[sub.uid] = sub
        if not self._running:
            self._running = True
            self.sim.process(self._sampling_loop(), name="bundle-monitor")
        return sub

    # -- internals -----------------------------------------------------------

    def _sampling_loop(self):
        while True:
            yield self.sim.timeout(INTERVAL_S)
            self._evaluate_all()

    def _evaluate_all(self) -> None:
        now = self.sim.now
        for sub in list(self._subs.values()):
            snapshot = self.snapshot_fn(sub.resource)
            if sub.predicate(snapshot):
                if sub._held_since is None:
                    sub._held_since = now
                held = now - sub._held_since
                if held >= sub.dwell_s:
                    due = (
                        sub._last_notified is None
                        or (
                            sub.renotify_s is not None
                            and now - sub._last_notified >= sub.renotify_s
                        )
                    )
                    if due:
                        sub._last_notified = now
                        self.notifications += 1
                        sub.callback(sub.uid, snapshot)
            else:
                sub._held_since = None
