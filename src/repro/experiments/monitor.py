"""Live campaign state: fold the campaign log into one observable model.

The :class:`CampaignMonitor` is the only fold of ledger records into
campaign state. It opens its own read-only handle on a campaign store
and, on every read, folds only the ``ledger`` rows past the last
``seq`` it has seen (the WAL reader contract keeps that safe while the
campaign writes). ``repro tail``, ``repro watch``, ``/state.json`` and
``/metrics`` all read this one model:

* a per-cell **status grid** (``pending``/``running``/``ok``/``error``),
  seeded from the ``campaign-start`` meta so unstarted cells are
  visible, not merely absent. A cell is ``running`` exactly while its
  latest ``attempt_started`` record has no closing record
  (:func:`~repro.experiments.store.closing_state`) — the same fold the
  store's attempt history and resume make. Its last-seen time is the
  later of its attempt's start and the campaign parent's heartbeat;
* progress, per-cell attempt counts, retries/timeouts, this session's
  throughput, and the cost-weighted ETA of
  :func:`~repro.experiments.runner.cost_eta`;
* **worker liveness** — last-seen wall time per worker pid, from cell
  and attempt records;
* **TTC component shares** of the completed cells: the mean over runs
  of each component's share of the run's TTC, from the cell records'
  component seconds through the fingerprint's own
  :func:`~repro.experiments.sentinel.mean_shares`, so ``watch``,
  ``/state.json`` and ``/metrics`` show the shares ``analyze`` and
  ``report`` show;
* **host gauges** (CPU seconds, RSS) sampled from ``/proc/self`` —
  cost of the process serving the view, Linux only, absent elsewhere.

The monitor keeps no copy of the log: :meth:`CampaignMonitor.events_after`
reads ``(seq, record)`` rows straight from the store, so the SSE
endpoint's ``Last-Event-ID`` resume is ``WHERE seq > N``. The monitor
is observation-only: it reads the store and never writes to it.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from .runner import cost_eta
from .sentinel import mean_shares
from .store import CampaignStore, closing_state, record_cell

__all__ = ["CampaignMonitor", "host_sample"]

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
    """Fold one campaign store's log into live campaign state.

    Thread-safe: HTTP handler threads and the dashboard may read it
    concurrently; one lock serializes every use of the store handle and
    of the folded state. ``clock`` is injectable for tests.
    """

    def __init__(self, path: str, clock=time.time) -> None:
        self._store: Optional[CampaignStore] = CampaignStore(
            path, readonly=True
        )
        self._lock = threading.Lock()
        self._clock = clock
        #: ``seq`` of the last log row folded.
        self.last_seq = 0
        # -- folded state ------------------------------------------------------
        self.started_at: Optional[float] = None
        self.meta: Dict[str, Any] = {}
        self.total = 0
        self.starts = 0
        self.session_cells = 0
        self.finished = False
        self.interrupted = False
        self.resumed: Optional[Dict[str, Any]] = None
        self.cells: Dict[Cell, Dict[str, Any]] = {}
        self.attempts: Dict[Cell, int] = {}
        self.running: Dict[Cell, Dict[str, Any]] = {}
        self.retries = 0
        self.timeouts = 0
        self.workers: Dict[int, float] = {}

    def close(self) -> None:
        """Release the store handle; reads then serve the last fold."""
        with self._lock:
            if self._store is not None:
                self._store.close()
                self._store = None

    def __enter__(self) -> "CampaignMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- ingestion -------------------------------------------------------------

    def _refresh_locked(self) -> None:
        """Fold the log rows written since the last read; the parent's
        heartbeat refreshes the running cells' last-seen times."""
        if self._store is None:
            return
        for seq, record in self._store.ledger_rows(self.last_seq):
            self._fold(record)
            self.last_seq = seq
        beat = self._store.heartbeat()
        if beat is not None:
            for live in self.running.values():
                if live["last_seen"] is None or beat > live["last_seen"]:
                    live["last_seen"] = beat

    def _fold(self, record: Dict[str, Any]) -> None:
        kind, wall = record.get("kind"), record.get("wall")
        if closing_state(record) is not None:
            self.running.pop(record_cell(record), None)
        if kind == "campaign-start":
            self.started_at = wall
            self.total = int(record.get("total", 0))
            self.meta = dict(record.get("meta") or {})
            self.finished = False
            self.starts += 1
            self.session_cells = 0
        elif kind == "campaign_resumed":
            self.resumed = record
        elif kind == "attempt_started":
            cell = record_cell(record)
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
            # a resumed retry's record supersedes the earlier one
            self.cells[record_cell(record)] = record
            self.session_cells += 1
            worker = record.get("worker")
            if worker is not None and wall is not None:
                self.workers[int(worker)] = float(wall)
        elif kind == "campaign-end":
            self.finished = True
            self.interrupted = bool(record.get("interrupted", False))

    # -- read-out --------------------------------------------------------------

    def events_after(self, after: int) -> List[Tuple[int, Dict[str, Any]]]:
        """``(seq, record)`` of every log row past ``after``, from the store."""
        with self._lock:
            if self._store is None:
                return []
            return self._store.ledger_rows(max(0, int(after)))

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
        with self._lock:
            self._refresh_locked()
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
            throughput = self.session_cells / elapsed if elapsed > 0 else 0.0
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
                "last_event_id": self.last_seq,
                "meta": self.meta,
                "elapsed_s": elapsed,
                "wall_spent_s": sum(
                    float(rec.get("wall_s", 0.0))
                    for rec in self.cells.values()
                ),
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
                "components": self._components_locked(),
                "grid": self._grid_locked(),
            }
        state["host"] = host_sample()
        return state

    def _components_locked(self) -> Dict[str, Dict[str, float]]:
        """Per component of the runs' records, in grid order: ``total``
        seconds and ``share``, the mean of per-run shares of TTC."""
        runs = [
            (float(rec.get("ttc") or 0.0), rec["components"])
            for _cell, rec in sorted(self.cells.items())
            if rec.get("ok", False) and rec.get("components")
        ]
        if not runs:
            return {}
        shares = mean_shares(runs)
        names = sorted({name for _, comps in runs for name in comps})
        return {
            name: {
                "total": sum(comps.get(name, 0.0) for _, comps in runs),
                "share": shares.get(name, 0.0),
            }
            for name in names
        }

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
