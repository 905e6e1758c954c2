"""The campaign log's record formatter: one ``ledger`` row per event.

A long campaign is opaque while it runs and forensically mute after it
crashes; the log fixes both. The runner hands every event — campaign
start, every attempt, every cell completion (coordinates, wall cost,
worker pid, digests, anomaly flags), campaign end — to a
:class:`RunLedger`, which formats it as one record and appends it to the
``ledger`` table of the campaign's
:class:`~repro.experiments.store.CampaignStore`. Each append commits on
its own or with the cell result it belongs to, so the log is whole and
current at every instant:
``repro tail``, ``repro watch`` and the ``--serve`` endpoints fold it by
``seq`` while the campaign runs, and a killed campaign leaves every
record it wrote. Folding records into campaign state is the job of
:class:`~repro.experiments.monitor.CampaignMonitor` alone.

Line kinds::

    {"kind": "campaign-start", "total": 16, "meta": {...}, "wall": ...}
    {"kind": "campaign_resumed", "committed": 9, "errors_skipped": 0,
     "errors_retried": 1, "reclaimed": 2, "remaining": 7, "wall": ...}
    {"kind": "attempt_started", "exp": 3, "n": 256, "rep": 1,
     "attempt": 2, "worker": 12345, "wall": ...}
    {"kind": "attempt_timeout", "exp": 3, "n": 256, "rep": 1,
     "budget_s": 30.0, "wall": ...}
    {"kind": "attempt_lost", "exp": 3, "n": 256, "rep": 1,
     "state": "crashed", "error": "...", "wall": ...}
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

The log is also the campaign's only attempt record. ``attempt_started``
opens an attempt, and ``cell``, ``attempt_timeout`` or ``attempt_lost``
(``crashed``, ``interrupted``, ``reclaimed``) closes it: the store's
:meth:`~repro.experiments.store.CampaignStore.begin_attempt` and
:meth:`~repro.experiments.store.CampaignStore.finish_attempt` write those
records, and the emitters here of the same kinds hand their content to
them. The runner writes a ``cell`` record in the transaction that stores
the cell's run or error.

Wall timestamps are operational metadata (they differ run to run); the
deterministic content — coordinates, virtual-time results, digests — is
what the sentinel and the tests consume.

An NDJSON file (one record per line, keys sorted) is an *export* of the
log, written by :func:`write_ndjson`: ``RunLedger(path=...)`` writes one
when it closes, and ``repro tail --json`` prints the same lines.
"""

from __future__ import annotations

import json
import logging
import time
from typing import IO, Any, Dict, Iterable, List, Optional

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


def write_ndjson(records: Iterable[Dict[str, Any]], fh: IO[str]) -> None:
    """Write log records as NDJSON: one sorted-key JSON object per line."""
    for record in records:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


class RunLedger:
    """Formats the campaign runner's events as records of a store's log.

    Every record lands in ``store``'s ``ledger`` table, which the caller
    owns. ``path``, when given, receives an NDJSON export of the whole
    log (earlier sessions of a resumed campaign included) on
    :meth:`close`.
    """

    def __init__(self, store, path: Optional[str] = None) -> None:
        if store is None:
            raise ValueError("RunLedger needs a campaign store")
        self.store = store
        self.path = path

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
        """Close the cell's attempt with its outcome: the ``cell`` record."""
        fields: Dict[str, Any] = {
            "done": progress.done,
            "total": progress.total,
            "wall_s": progress.wall_s,
            "worker": worker,
        }
        if run is not None:
            fields.update(
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
                fields["components"] = {k: v for k, v in run.attribution}
        if progress.error is not None:
            fields["anomalies"] = ["error"]
        self.store.finish_attempt(
            *progress.cell, state="committed" if progress.ok else "failed",
            error=progress.error, **fields,
        )

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

    def attempt_started(self, cell, worker: Optional[int] = None) -> int:
        """Open an attempt of ``cell``; returns its attempt number."""
        return self.store.begin_attempt(*cell, worker=worker)

    def attempt_timeout(self, cell, budget_s: float) -> None:
        """Close the cell's attempt, killed past its wall budget."""
        self.store.finish_attempt(*cell, state="timeout", budget_s=budget_s)

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

    # -- plumbing --------------------------------------------------------------

    def _emit(self, record: Dict[str, Any]) -> None:
        if self.store is None:  # pragma: no cover
            log.warning("ledger already closed; %s record dropped",
                        record.get("kind"))
            return
        self.store.append_ledger(record)

    def close(self) -> None:
        """Write the NDJSON export (if a path was given) and detach."""
        if self.store is None:
            return
        if self.path is not None:
            with open(self.path, "w", encoding="utf-8") as fh:
                write_ndjson(self.store.ledger_records(), fh)
        self.store = None  # the store handle is owned by the caller

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

