"""The campaign observatory's run ledger: streaming NDJSON, one event per line.

A long campaign is opaque while it runs and forensically mute after it
crashes; the ledger fixes both. The runner appends one JSON object per
event — campaign start, every cell completion (coordinates, wall cost,
worker pid, digests, anomaly flags), campaign end — flushing each line,
so the file is valid and current at every instant: ``repro tail`` and
``repro watch`` read it live, ``repro report`` reads it after the fact,
and a killed campaign leaves every completed cell on disk. This module
writes and reads records only; folding them into campaign state is the
job of :class:`~repro.experiments.monitor.CampaignMonitor` alone.

Line kinds::

    {"kind": "campaign-start", "total": 16, "meta": {...}, "wall": ...}
    {"kind": "campaign_resumed", "committed": 9, "errors_skipped": 0,
     "errors_retried": 1, "reclaimed": 2, "remaining": 7, "wall": ...}
    {"kind": "attempt_started", "exp": 3, "n": 256, "rep": 1,
     "attempt": 2, "worker": 12345, "wall": ...}
    {"kind": "attempt_timeout", "exp": 3, "n": 256, "rep": 1,
     "attempt": 2, "budget_s": 30.0, "wall": ...}
    {"kind": "cell_retried", "exp": 3, "n": 256, "rep": 1,
     "attempt": 3, "backoff_s": 0.7, "wall": ...}
    {"kind": "cell", "exp": 3, "n": 256, "rep": 1, "ok": true,
     "wall_s": 0.41, "worker": 12345, "ttc": 5012.3,
     "digest": "...", "attribution_digest": "...",
     "anomalies": ["incomplete"], ...}
    {"kind": "campaign-end", "completed": 15, "errors": 1, "wall_s": ...,
     "interrupted": false}

(The attempt/resume events keep the snake_case names of the resilience
layer that emits them; see :mod:`repro.experiments.resilience`.)

Wall timestamps are operational metadata (they differ run to run); the
deterministic content — coordinates, virtual-time results, digests — is
what the sentinel and the tests consume.
"""

from __future__ import annotations

import json
import logging
import time
from typing import IO, Any, Dict, List, Optional

from .campaign import CellProgress, RunResult

log = logging.getLogger(__name__)


def flag_anomalies(run: RunResult) -> List[str]:
    """Deterministic per-run anomaly flags for the ledger and reports."""
    flags: List[str] = []
    if run.units_done < run.n_tasks:
        flags.append("incomplete")
    if run.restarts:
        flags.append("restarts")
    if run.attribution:
        by = dict(run.attribution)
        if run.ttc > 0 and by.get("idle", 0.0) > 0.05 * run.ttc:
            flags.append("idle-heavy")
    return flags


class RunLedger:
    """Append-only run-ledger writer the campaign runner streams into.

    Writes NDJSON to ``path``, mirrors every record into a
    :class:`~repro.experiments.store.CampaignStore` ``ledger`` table,
    publishes it to an in-process :class:`~repro.telemetry.bus.EventBus`
    (the live observability plane), or any combination — every sink
    carries identical records and ``repro tail`` reads either durable
    one. At least one sink must be given. The bus sink is fire-and-
    forget and never blocks, so attaching a monitor cannot perturb the
    campaign (see :mod:`repro.telemetry.bus`).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        store=None,
        append: bool = False,
        bus=None,
    ) -> None:
        if path is None and store is None and bus is None:
            raise ValueError("RunLedger needs a path, a store, or a bus")
        self.path = path
        self.store = store
        self.bus = bus
        # a resumed campaign appends to the interrupted session's ledger
        # instead of truncating its history.
        mode = "a" if append else "w"
        self._fh: Optional[IO[str]] = (
            open(path, mode, encoding="utf-8") if path is not None else None
        )

    # -- record emitters -------------------------------------------------------

    def campaign_start(self, total: int, meta: Dict[str, Any]) -> None:
        self._emit({
            "kind": "campaign-start",
            "total": total,
            "meta": meta,
            "wall": time.time(),
        })

    def cell(
        self,
        progress: CellProgress,
        run: Optional[RunResult] = None,
        worker: Optional[int] = None,
    ) -> None:
        exp_id, n_tasks, rep = progress.cell
        record: Dict[str, Any] = {
            "kind": "cell",
            "exp": exp_id,
            "n": n_tasks,
            "rep": rep,
            "ok": progress.ok,
            "done": progress.done,
            "total": progress.total,
            "wall_s": progress.wall_s,
            "wall": time.time(),
        }
        if worker is not None:
            record["worker"] = worker
        if run is not None:
            record.update(
                ttc=run.ttc,
                units_done=run.units_done,
                events=run.events,
                digest=run.digest,
                attribution_digest=run.attribution_digest,
                anomalies=flag_anomalies(run),
            )
            if run.attribution:
                # per-component TTC shares; deterministic content the
                # live dashboard renders as share bars.
                record["components"] = {k: v for k, v in run.attribution}
        if progress.error is not None:
            record["error"] = progress.error
            record["anomalies"] = ["error"]
        self._emit(record)

    def campaign_end(
        self, completed: int, errors: int, wall_s: float,
        interrupted: bool = False,
    ) -> None:
        self._emit({
            "kind": "campaign-end",
            "completed": completed,
            "errors": errors,
            "wall_s": wall_s,
            "interrupted": interrupted,
            "wall": time.time(),
        })

    def campaign_resumed(
        self, committed: int, errors_skipped: int, errors_retried: int,
        reclaimed: int, remaining: int,
    ) -> None:
        """A resumed session taking over a half-finished store."""
        self._emit({
            "kind": "campaign_resumed",
            "committed": committed,
            "errors_skipped": errors_skipped,
            "errors_retried": errors_retried,
            "reclaimed": reclaimed,
            "remaining": remaining,
            "wall": time.time(),
        })

    def attempt_started(
        self, cell, attempt: int, worker: Optional[int] = None
    ) -> None:
        exp_id, n_tasks, rep = cell
        record: Dict[str, Any] = {
            "kind": "attempt_started",
            "exp": exp_id, "n": n_tasks, "rep": rep,
            "attempt": attempt,
            "wall": time.time(),
        }
        if worker is not None:
            record["worker"] = worker
        self._emit(record)

    def attempt_timeout(self, cell, attempt, budget_s: float) -> None:
        exp_id, n_tasks, rep = cell
        self._emit({
            "kind": "attempt_timeout",
            "exp": exp_id, "n": n_tasks, "rep": rep,
            "attempt": attempt,
            "budget_s": budget_s,
            "wall": time.time(),
        })

    def cell_retried(
        self, cell, attempt: int, backoff_s: float = 0.0
    ) -> None:
        exp_id, n_tasks, rep = cell
        self._emit({
            "kind": "cell_retried",
            "exp": exp_id, "n": n_tasks, "rep": rep,
            "attempt": attempt,
            "backoff_s": backoff_s,
            "wall": time.time(),
        })

    def heartbeat(self, cells, workers=()) -> None:
        """Liveness pulse for in-flight cells — **bus-only**, never persisted.

        Heartbeats are operational noise with no forensic value (the
        attempts table already timestamps leases durably), so they skip
        the file and store sinks entirely and only feed live
        subscribers' worker-liveness views.
        """
        if self.bus is None:
            return
        self.bus.publish({
            "kind": "heartbeat",
            "cells": [list(c) for c in cells],
            "workers": [int(w) for w in workers],
            "wall": time.time(),
        })

    # -- plumbing --------------------------------------------------------------

    def _emit(self, record: Dict[str, Any]) -> None:
        if (
            self._fh is None and self.store is None and self.bus is None
        ):  # pragma: no cover
            log.warning("ledger %s already closed; record dropped", self.path)
            return
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
        if self.store is not None:
            self.store.append_ledger(record)
        if self.bus is not None:
            self.bus.publish(record)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self.store = None  # the store handle is owned by the caller
        self.bus = None  # likewise: subscribers outlive the ledger

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- reading side --------------------------------------------------------------


def read_ledger(path: str) -> List[Dict[str, Any]]:
    """Parse an NDJSON ledger; tolerates a torn trailing line (live file).

    A live tail can split the writer's last line anywhere — including
    *inside* a multi-byte UTF-8 character — so the file is read as
    bytes and each line decoded individually: a trailing fragment that
    fails to decode or to parse is dropped, everything before it is
    intact. (Text-mode reading would raise ``UnicodeDecodeError`` for
    the whole file on a mid-character tear.)
    """
    records: List[Dict[str, Any]] = []
    with open(path, "rb") as fh:
        data = fh.read()
    for raw in data.split(b"\n"):
        if not raw.strip():
            continue
        try:
            records.append(json.loads(raw.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError):
            # a writer mid-line (possibly mid-character); everything
            # before it is intact.
            log.debug("torn ledger line ignored: %.40r...", raw[:40])
            break
    return records


def read_ledger_any(path: str) -> List[Dict[str, Any]]:
    """Read ledger records from an NDJSON file *or* a campaign store.

    :func:`~repro.experiments.watch.monitor_from_path` points here: the
    campaign runner streams the same records to both sinks, so consumers
    need not care which one they were handed.
    """
    from .store import CampaignStore, is_store

    if is_store(path):
        with CampaignStore(path, readonly=True) as store:
            return store.ledger_records()
    return read_ledger(path)
