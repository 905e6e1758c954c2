"""The event log: a deterministic record of faults and supervision decisions.

The fault injector writes one :class:`Event` per fault it enacts (pilot
kills, submission failures, link degradations, resource outages); the
health registry writes one per supervision decision (breaker
transitions, watchdog reschedules, re-plans, deadline expiry). Each log
renders to canonical JSON and hashes to a digest, so two runs of the
same seeded scenario can be compared byte-for-byte. Targets are
therefore *stable* names (resources, sites, unit names, per-manager
pilot indices) rather than process-global uids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from .digest import canonical_json, sha256_digest


@dataclass(frozen=True)
class Event:
    """One enacted fault or supervision decision."""

    time: float
    kind: str      # "pilot-kill" | "outage" | "breaker-open" | "replan" | ...
    target: str    # stable name: resource, site, unit, or "resource/pilot#i"
    details: Tuple[Tuple[str, object], ...] = ()

    def as_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "kind": self.kind,
            "target": self.target,
            "details": dict(self.details),
        }


class EventLog:
    """Append-only, deterministic record of events.

    ``title``, ``empty`` and ``noun`` word the one-line :meth:`summary`:
    ``"{title}: {empty}"`` with no events, else ``"{title}: {n} {noun}
    (kind xN, ...); digest ..."``.
    """

    def __init__(
        self, title: str, empty: str, noun: str, events: Iterable[Event] = ()
    ) -> None:
        self.title = title
        self.empty = empty
        self.noun = noun
        self.events: List[Event] = list(events)
        #: called with each event as it is recorded (listeners never
        #: affect the log's contents or digest).
        self._listeners: List[Callable[[Event], None]] = []

    def add_listener(self, fn: Callable[[Event], None]) -> None:
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[Event], None]) -> None:
        if fn in self._listeners:
            self._listeners.remove(fn)

    def record(self, time: float, kind: str, target: str, **details) -> Event:
        ev = Event(
            time=float(time),
            kind=kind,
            target=target,
            details=tuple(sorted(details.items())),
        )
        self.events.append(ev)
        for fn in list(self._listeners):
            fn(ev)
        return ev

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def between(self, t0: float, t1: float) -> "EventLog":
        """Sub-log of events with t0 <= time <= t1 (for one execution)."""
        return EventLog(
            self.title, self.empty, self.noun,
            (e for e in self.events if t0 <= e.time <= t1),
        )

    def of_kind(self, kind: str) -> Tuple[Event, ...]:
        return tuple(e for e in self.events if e.kind == kind)

    def by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    # -- reproducibility -----------------------------------------------------

    def to_list(self) -> List[Dict[str, object]]:
        return [e.as_dict() for e in self.events]

    def canonical_json(self) -> str:
        """Canonical rendering: stable key order, exact float repr."""
        return canonical_json(self.to_list())

    def digest(self) -> str:
        """SHA-256 of the canonical JSON — equal iff the logs are identical."""
        return sha256_digest(self.canonical_json())

    def summary(self) -> str:
        if not self.events:
            return f"{self.title}: {self.empty}"
        kinds = ", ".join(
            f"{k} x{n}" for k, n in sorted(self.by_kind().items())
        )
        return (
            f"{self.title}: {len(self.events)} {self.noun} ({kinds}); "
            f"digest {self.digest()[:12]}"
        )
