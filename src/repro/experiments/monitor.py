"""Live campaign state: fold the event stream into one observable model.

The :class:`CampaignMonitor` is the only fold of ledger records into
campaign state. The :mod:`bus <repro.telemetry.bus>` moves raw ledger
records live; a durable ledger replays them after the fact
(:func:`~repro.experiments.watch.monitor_from_path`). Either way the
monitor *folds* them incrementally into one model that ``repro tail``,
``repro watch``, ``repro report``, ``/state.json`` and ``/metrics``
all read:

* a per-cell **status grid** (``pending``/``running``/``ok``/``error``),
  seeded from the ``campaign-start`` meta so unstarted cells are
  visible, not merely absent;
* progress, per-cell attempt counts, retries/timeouts, throughput, and
  the cost-weighted ETA of :func:`~repro.experiments.runner.cost_eta`;
* **worker liveness** — last-seen wall time per worker pid, fed by cell
  records and the bus-only heartbeat pulses;
* **TTC component shares** summed across completed cells (the live
  version of the attribution stack the HTML report draws);
* **host gauges** (CPU seconds, RSS) sampled from ``/proc/self`` —
  parent-process cost of the campaign, Linux only, absent elsewhere.

Every durable ledger record the monitor ingests is retained with a
monotonically increasing integer id — the replay log behind the SSE
endpoint's ``Last-Event-ID`` resume contract (heartbeats fold into
liveness state but are *not* retained or replayed: they are ephemeral
by design). The monitor is observation-only: it subscribes, folds, and
serves; it never talks back to the runner.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..telemetry.bus import EventBus, Subscription
from .runner import cost_eta

__all__ = ["CampaignMonitor", "host_sample"]

#: ledger kinds that enter the retained/replayable event history.
_DURABLE_KINDS = frozenset({
    "campaign-start", "campaign-end", "campaign_resumed",
    "cell", "attempt_started", "attempt_timeout", "cell_retried",
})

Cell = Tuple[int, int, int]


def host_sample() -> Dict[str, Any]:
    """CPU/RSS of *this* process from ``/proc/self`` (Linux; else empty).

    Reads ``utime``/``stime`` ticks from ``/proc/self/stat`` and
    ``VmRSS`` from ``/proc/self/status``. Purely diagnostic — never
    enters any digest-bearing artifact.
    """
    out: Dict[str, Any] = {}
    try:
        with open("/proc/self/stat", "rb") as fh:
            stat = fh.read().decode("ascii", "replace")
        # field 2 is "(comm)" and may contain spaces; split after it.
        fields = stat.rsplit(")", 1)[1].split()
        utime, stime = int(fields[11]), int(fields[12])
        ticks = os.sysconf("SC_CLK_TCK") or 100
        out["cpu_s"] = (utime + stime) / ticks
    except (OSError, IndexError, ValueError):
        pass
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    out["rss_kb"] = int(line.split()[1])
                    break
    except (OSError, IndexError, ValueError):
        pass
    return out


class CampaignMonitor:
    """Fold ledger events into live campaign state, retaining a replay log.

    Thread-safe: :meth:`feed` may be called from a bus-drainer thread
    while HTTP handler threads call :meth:`state` / :meth:`wait_events`
    and the dashboard polls. ``clock`` is injectable for tests.
    """

    def __init__(self, clock=time.time) -> None:
        self._cond = threading.Condition()
        self._clock = clock
        #: retained durable events, ``events[i]`` has id ``i + 1``.
        self.events: List[Dict[str, Any]] = []
        self._sub: Optional[Subscription] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        # -- folded state ------------------------------------------------------
        self.started_at: Optional[float] = None
        self.meta: Dict[str, Any] = {}
        self.total = 0
        self.starts = 0
        self.finished = False
        self.interrupted = False
        self.resumed: Optional[Dict[str, Any]] = None
        self.cells: Dict[Cell, Dict[str, Any]] = {}
        self.attempts: Dict[Cell, int] = {}
        self.running: Dict[Cell, Dict[str, Any]] = {}
        self.retries = 0
        self.timeouts = 0
        self.workers: Dict[int, float] = {}
        self.heartbeats = 0
        self.components: Dict[str, float] = {}
        self.wall_spent = 0.0

    # -- ingestion -------------------------------------------------------------

    def attach(self, bus: EventBus, maxsize: int = 4096) -> None:
        """Subscribe to ``bus`` and drain it on a daemon thread."""
        self._sub = bus.subscribe(maxsize=maxsize, name="monitor")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._drain, name="campaign-monitor", daemon=True
        )
        self._thread.start()

    def _drain(self) -> None:
        while not self._stop.is_set():
            event = self._sub.get(timeout=0.25)
            if event is not None:
                self.feed(event)
            elif self._sub.closed and not len(self._sub):
                break

    def stop(self) -> None:
        """Detach from the bus and join the drainer thread."""
        self._stop.set()
        if self._sub is not None:
            self._sub.close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def feed_many(self, records) -> None:
        """Pre-seed from history (a store's ledger, a resumed session)."""
        for record in records:
            self.feed(record)

    def feed(self, record: Dict[str, Any]) -> int:
        """Fold one ledger record into the model; returns its event id.

        Heartbeats update liveness only and return 0 (no replay id).
        Cell records dedupe by coordinates (last wins), so a retried
        cell from a resumed session counts once.
        """
        kind = record.get("kind")
        with self._cond:
            if kind == "heartbeat":
                self._fold_heartbeat(record)
                self._cond.notify_all()
                return 0
            if kind in _DURABLE_KINDS:
                self._fold(kind, record)
            self.events.append(record)
            event_id = len(self.events)
            self._cond.notify_all()
            return event_id

    def _fold_heartbeat(self, record: Dict[str, Any]) -> None:
        self.heartbeats += 1
        wall = float(record.get("wall", self._clock()))
        for raw in record.get("cells", ()):
            cell = tuple(int(x) for x in raw)
            if len(cell) == 3 and self.cells.get(cell) is None:
                self.running.setdefault(cell, {})["last_seen"] = wall
        for pid in record.get("workers", ()):
            self.workers[int(pid)] = wall

    def _fold(self, kind: str, record: Dict[str, Any]) -> None:
        wall = record.get("wall")
        if kind == "campaign-start":
            self.started_at = wall
            self.total = int(record.get("total", 0))
            self.meta = dict(record.get("meta") or {})
            self.finished = False
            self.starts += 1
        elif kind == "campaign_resumed":
            self.resumed = record
        elif kind == "attempt_started":
            cell = _coords(record)
            self.attempts[cell] = self.attempts.get(cell, 0) + 1
            self.running[cell] = {
                "attempt": record.get("attempt"),
                "worker": record.get("worker"),
                "last_seen": wall,
            }
            worker = record.get("worker")
            if worker is not None and wall is not None:
                self.workers[int(worker)] = float(wall)
        elif kind == "attempt_timeout":
            self.timeouts += 1
        elif kind == "cell_retried":
            self.retries += 1
        elif kind == "cell":
            cell = _coords(record)
            previous = self.cells.get(cell)
            if previous is not None:
                # resumed retry supersedes: back out the old record.
                self.wall_spent -= float(previous.get("wall_s", 0.0))
                for name, share in (previous.get("components") or {}).items():
                    self.components[name] = (
                        self.components.get(name, 0.0) - float(share)
                    )
            self.cells[cell] = record
            self.running.pop(cell, None)
            self.wall_spent += float(record.get("wall_s", 0.0))
            for name, share in (record.get("components") or {}).items():
                self.components[name] = (
                    self.components.get(name, 0.0) + float(share)
                )
            worker = record.get("worker")
            if worker is not None and wall is not None:
                self.workers[int(worker)] = float(wall)
        elif kind == "campaign-end":
            self.finished = True
            self.interrupted = bool(record.get("interrupted", False))
            self.running.clear()

    # -- read-out --------------------------------------------------------------

    @property
    def last_event_id(self) -> int:
        with self._cond:
            return len(self.events)

    def events_after(self, after_id: int) -> List[Tuple[int, Dict[str, Any]]]:
        """Retained events with ids greater than ``after_id`` (replay)."""
        with self._cond:
            start = max(0, int(after_id))
            return [
                (i + 1, self.events[i]) for i in range(start, len(self.events))
            ]

    def wait_events(
        self, after_id: int, timeout: float = 1.0
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """Block up to ``timeout`` for events past ``after_id`` (follow)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self.events) <= after_id:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._cond.wait(remaining)
            return [
                (i + 1, self.events[i])
                for i in range(max(0, int(after_id)), len(self.events))
            ]

    def grid(self) -> List[Dict[str, Any]]:
        """Per-cell status rows, pending cells included (meta-derived)."""
        with self._cond:
            return self._grid_locked()

    def _declared_locked(self) -> List[Cell]:
        """The grid the ``campaign-start`` meta declares, in grid order."""
        reps = int(self.meta.get("reps") or 0)
        return [
            (int(exp), int(n), rep)
            for exp in self.meta.get("experiments") or []
            for n in self.meta.get("task_counts") or []
            for rep in range(reps)
        ]

    def _grid_locked(self) -> List[Dict[str, Any]]:
        coords = self._declared_locked()
        seen = set(coords)
        # cells observed outside the declared grid (hand-fed histories)
        # still show up rather than vanishing.
        for cell in sorted(set(self.cells) | set(self.running)):
            if cell not in seen:
                coords.append(cell)
        rows = []
        for cell in coords:
            rec = self.cells.get(cell)
            if rec is not None:
                status = "ok" if rec.get("ok", False) else "error"
                row = {
                    "cell": list(cell),
                    "status": status,
                    "wall_s": rec.get("wall_s"),
                    "ttc": rec.get("ttc"),
                    "worker": rec.get("worker"),
                    "anomalies": rec.get("anomalies") or [],
                }
            elif cell in self.running:
                live = self.running[cell]
                row = {
                    "cell": list(cell),
                    "status": "running",
                    "attempt": live.get("attempt"),
                    "worker": live.get("worker"),
                    "last_seen": live.get("last_seen"),
                }
            else:
                row = {"cell": list(cell), "status": "pending"}
            attempts = self.attempts.get(cell, 0)
            if attempts > 1:
                row["attempts"] = attempts
            rows.append(row)
        return rows

    def state(self) -> Dict[str, Any]:
        """One JSON-safe snapshot of everything the plane observes."""
        now = self._clock()
        with self._cond:
            done = len(self.cells)
            errors = sum(
                1 for rec in self.cells.values() if not rec.get("ok", False)
            )
            eta = cost_eta(
                self._declared_locked(),
                {
                    cell: float(rec.get("wall_s", 0.0))
                    for cell, rec in self.cells.items()
                },
            )
            elapsed = (
                now - self.started_at if self.started_at is not None else 0.0
            )
            throughput = done / elapsed if elapsed > 0 else 0.0
            total_share = sum(self.components.values())
            state = {
                "kind": "campaign-state",
                "wall": now,
                "total": self.total,
                "done": done,
                "errors": errors,
                "finished": self.finished,
                "interrupted": self.interrupted,
                "resumed": self.resumed,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "heartbeats": self.heartbeats,
                "last_event_id": len(self.events),
                "meta": self.meta,
                "elapsed_s": elapsed,
                "wall_spent_s": self.wall_spent,
                "eta_s": eta,
                "throughput_cps": throughput,
                "running": [
                    {
                        "cell": list(cell),
                        "attempt": live.get("attempt"),
                        "worker": live.get("worker"),
                        "age_s": (
                            now - live["last_seen"]
                            if live.get("last_seen") is not None else None
                        ),
                    }
                    for cell, live in sorted(self.running.items())
                ],
                "workers": [
                    {"pid": pid, "age_s": now - seen}
                    for pid, seen in sorted(self.workers.items())
                ],
                "components": {
                    name: {
                        "total": share,
                        "share": share / total_share if total_share else 0.0,
                    }
                    for name, share in sorted(self.components.items())
                },
                "grid": self._grid_locked(),
            }
        state["host"] = host_sample()
        return state

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Counters and gauges of the folded state, in the snapshot shape
        :func:`~repro.telemetry.metrics.render_prometheus` renders.

        ``monitor.cells`` and ``monitor.cell_errors`` count deduplicated
        cells, so a retried error cell that passes leaves the error count.
        """
        state = self.state()
        counters = {
            "monitor.campaign_starts": self.starts,
            "monitor.cell_errors": state["errors"],
            "monitor.cells": state["done"],
            "monitor.retries": state["retries"],
            "monitor.timeouts": state["timeouts"],
        }
        gauges: Dict[str, Any] = {
            "monitor.cells_total": state["total"],
            "monitor.cells_done": state["done"],
            "monitor.cells_errored": state["errors"],
            "monitor.cells_running": len(state["running"]),
            "monitor.finished": state["finished"],
            "monitor.eta_s": state["eta_s"],
            "monitor.throughput_cps": state["throughput_cps"],
            "monitor.workers_seen": len(state["workers"]),
            "monitor.wall_spent_s": state["wall_spent_s"],
        }
        for name, comp in state["components"].items():
            gauges[f"monitor.component_share.{name}"] = comp["share"]
        host = state["host"]
        if "cpu_s" in host:
            gauges["monitor.host_cpu_s"] = host["cpu_s"]
        if "rss_kb" in host:
            gauges["monitor.host_rss_kb"] = host["rss_kb"]
        return {"counters": counters, "gauges": gauges}


def _coords(record: Dict[str, Any]) -> Cell:
    return (int(record["exp"]), int(record["n"]), int(record["rep"]))
