"""The campaign result store: the one sink and read model of a campaign.

Every campaign records through a :class:`CampaignStore` — a file the
caller names, or a private in-memory one that
:func:`~repro.experiments.runner.run_campaign` opens when it is given
none — and every reader opens one through :func:`open_campaign`. A
legacy JSON artifact (:mod:`repro.experiments.io`) is an export and a
:func:`migrate_json` input: opened for reading, it is migrated into an
in-memory store first, so one code path reads both. One sqlite file
(WAL mode) holds

* ``runs`` — one row per repetition, keyed ``(exp_id, n_tasks, rep)``,
  with the full :class:`~repro.experiments.campaign.RunResult` as a
  JSON payload (the exact :func:`repro.experiments.io.run_to_dict`
  codec, so store and JSON export round-trip identically) plus indexed
  scalar columns (``ttc``, digests) for queries;
* ``cell_errors`` — repetitions lost to crashes, same key;
* ``ledger`` — the campaign log: one row per
  :class:`~repro.experiments.ledger.RunLedger` record, numbered by an
  autoincrement ``seq`` that continues across resumed sessions. It is
  the only campaign log (``repro tail``, ``repro watch`` and the
  ``--serve`` endpoints all fold it by ``seq``) and the only attempt
  record: :meth:`CampaignStore.begin_attempt` opens an attempt, and
  :meth:`CampaignStore.finish_attempt` closes it (see
  :func:`closing_state`);
* ``store_meta`` — format version, the campaign provenance dict, the
  cleanly-interrupted flag, and the campaign parent's heartbeat.

A format-1 store (which kept a second, ``attempts``-table copy of every
attempt) still opens read-only for ``repro analyze``, ``report``,
``tail`` and ``watch``; opening one read-write refuses with a message.

The store holds primary data only: the sentinel fingerprint and the
config digest are derived from these rows whenever they are needed.

Concurrency contract: exactly one writer (the campaign runner's parent
process — workers never touch the store), any number of readers. WAL
mode gives readers a consistent committed snapshot while the writer
appends; every ``put_*`` is one transaction, so a reader can never
observe a torn or partial row and a crashed writer leaves no orphan
rows — whatever committed is whole, the in-flight cell simply is not
there. A run and the ``cell`` record that closes its attempt commit
together, so no reader sees a stored run whose cell still reads
pending.

``rows_read`` counts rows actually materialized into Python objects;
the differential harness uses it to prove that fetching one cell of a
thousand-cell campaign does not deserialize the other 999.
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import time
from contextlib import contextmanager
from collections import Counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .campaign import CampaignResult, CellError, RunResult
from .io import error_from_dict, error_to_dict, run_from_dict, run_to_dict

log = logging.getLogger(__name__)

STORE_FORMAT = 2

#: the first 16 bytes of every sqlite3 database file.
_SQLITE_MAGIC = b"SQLite format 3\x00"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    exp_id   INTEGER NOT NULL,
    n_tasks  INTEGER NOT NULL,
    rep      INTEGER NOT NULL,
    seq      INTEGER NOT NULL,
    ttc      REAL,
    units_done INTEGER NOT NULL,
    digest   TEXT NOT NULL,
    attribution_digest TEXT NOT NULL,
    payload  TEXT NOT NULL,
    PRIMARY KEY (exp_id, n_tasks, rep)
);
CREATE INDEX IF NOT EXISTS idx_runs_ttc ON runs (ttc);
CREATE TABLE IF NOT EXISTS cell_errors (
    exp_id  INTEGER NOT NULL,
    n_tasks INTEGER NOT NULL,
    rep     INTEGER NOT NULL,
    seq     INTEGER NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (exp_id, n_tasks, rep)
);
CREATE TABLE IF NOT EXISTS ledger (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    kind   TEXT NOT NULL,
    record TEXT NOT NULL
);
"""


def is_store(path: str) -> bool:
    """True when ``path`` is an existing sqlite database file."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC
    except OSError:
        return False


class CampaignStore:
    """Repository over one campaign-store sqlite file.

    Open read-write (the default) to create/extend a store, or with
    ``readonly=True`` for consumers that must never mutate it (``repro
    tail`` on a live campaign, ``repro analyze``). Handles are cheap;
    concurrent processes each open their own.
    """

    def __init__(self, path: str, readonly: bool = False) -> None:
        self.path = path
        self.readonly = readonly
        #: rows materialized into Python objects by this handle — the
        #: differential harness's O(cell)-not-O(campaign) evidence.
        self.rows_read = 0
        #: ``attempt_started`` records per cell, once this handle opens one.
        self._opened: Optional[Counter] = None
        if readonly:
            uri = f"file:{path}?mode=ro"
            # a monitor shares its handle with the HTTP handler threads
            # and serializes every use of it with its own lock.
            self._conn = sqlite3.connect(
                uri, uri=True, isolation_level=None, check_same_thread=False
            )
        else:
            self._conn = sqlite3.connect(path, isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA busy_timeout=5000")
        if not readonly:
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._init_format()

    def _init_format(self) -> None:
        row = self._conn.execute(
            "SELECT value FROM store_meta WHERE key='format'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO store_meta (key, value) VALUES ('format', ?)",
                (str(STORE_FORMAT),),
            )
        elif int(row[0]) != STORE_FORMAT:
            self.close()
            raise ValueError(
                f"unsupported store format {row[0]!r} in {self.path}: this "
                f"version writes format {STORE_FORMAT}, which records every "
                "attempt in the campaign log. `repro analyze`, `report`, "
                "`tail` and `watch` still read it; to run or resume a "
                "campaign, point --store at a fresh path"
            )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Group several writes into one atomic commit.

        Readers see nothing until the block exits cleanly; an exception
        rolls the whole group back (no orphan rows).
        """
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    # -- writing ---------------------------------------------------------------

    def put_run(self, run: RunResult) -> None:
        """Insert or replace one repetition (idempotent by coordinates)."""
        ttc = run.ttc if run.ttc == run.ttc else None  # sqlite: NaN -> NULL
        self._conn.execute(
            "INSERT OR REPLACE INTO runs "
            "(exp_id, n_tasks, rep, seq, ttc, units_done, digest, "
            " attribution_digest, payload) "
            "VALUES (?, ?, ?, "
            " (SELECT COALESCE(MAX(seq), -1) + 1 FROM runs), "
            " ?, ?, ?, ?, ?)",
            (
                run.exp_id, run.n_tasks, run.rep, ttc, run.units_done,
                run.digest, run.attribution_digest,
                json.dumps(run_to_dict(run), sort_keys=True),
            ),
        )

    def put_error(self, err: CellError) -> None:
        """Insert or replace one failed repetition."""
        self._conn.execute(
            "INSERT OR REPLACE INTO cell_errors "
            "(exp_id, n_tasks, rep, seq, payload) "
            "VALUES (?, ?, ?, "
            " (SELECT COALESCE(MAX(seq), -1) + 1 FROM cell_errors), ?)",
            (
                err.exp_id, err.n_tasks, err.rep,
                json.dumps(error_to_dict(err), sort_keys=True),
            ),
        )

    def set_campaign_meta(self, meta: Dict[str, Any]) -> None:
        """Record the campaign provenance dict (seed, grid, reps)."""
        self._conn.execute(
            "INSERT OR REPLACE INTO store_meta (key, value) "
            "VALUES ('campaign', ?)",
            (json.dumps(dict(meta), sort_keys=True),),
        )

    def append_ledger(self, record: Dict[str, Any]) -> None:
        """Append one record to the campaign log."""
        self._conn.execute(
            "INSERT INTO ledger (kind, record) VALUES (?, ?)",
            (str(record.get("kind", "?")), json.dumps(record, sort_keys=True)),
        )

    # -- attempts --------------------------------------------------------------

    def begin_attempt(
        self, exp_id: int, n_tasks: int, rep: int,
        worker: Optional[int] = None, now: Optional[float] = None,
    ) -> int:
        """Open an attempt: append the cell's ``attempt_started`` record.

        Attempt numbers continue from the cell's earlier
        ``attempt_started`` records (counted once per handle, the first
        time it opens one: the store has one writer), so a resumed
        campaign's history reads as one sequence. Returns the number.
        """
        if self._opened is None:
            self._opened = Counter(
                record_cell(json.loads(record))
                for (record,) in self._conn.execute(
                    "SELECT record FROM ledger WHERE kind='attempt_started'"
                )
            )
        attempt = self._opened[(exp_id, n_tasks, rep)] + 1
        self._append_attempt(
            "attempt_started", exp_id, n_tasks, rep, now,
            attempt=attempt, worker=worker,
        )
        self._opened[(exp_id, n_tasks, rep)] = attempt
        return attempt

    def finish_attempt(
        self, exp_id: int, n_tasks: int, rep: int, state: str,
        error: Optional[str] = None, now: Optional[float] = None,
        **fields: Any,
    ) -> None:
        """Close the cell's open attempt: append the record that ends it.

        ``committed`` and ``failed`` end it with the cell's ``cell``
        record, ``timeout`` with ``attempt_timeout``, and any other state
        (``crashed``, ``interrupted``, ``reclaimed``) with an
        ``attempt_lost`` record that names it; :func:`closing_state`
        reads the state back. ``fields`` are the rest of the record.
        """
        if state in ("committed", "failed"):
            kind, fields["ok"] = "cell", state == "committed"
        elif state == "timeout":
            kind = "attempt_timeout"
        else:
            kind, fields["state"] = "attempt_lost", state
        self._append_attempt(
            kind, exp_id, n_tasks, rep, now, error=error, **fields
        )

    def _append_attempt(
        self, kind: str, exp_id: int, n_tasks: int, rep: int,
        now: Optional[float], **fields: Any,
    ) -> None:
        record = {k: v for k, v in fields.items() if v is not None}
        record.update(
            kind=kind, exp=exp_id, n=n_tasks, rep=rep,
            wall=time.time() if now is None else now,
        )
        self.append_ledger(record)

    def reclaim_stale_leases(self, now: Optional[float] = None) -> int:
        """Close every open attempt ``reclaimed``; returns how many.

        Called by resume planning: any attempt left open belongs to a
        run that died (SIGKILL, power loss) — its cell never committed,
        so it is safe and necessary to re-dispatch.
        """
        stale = self.attempt_rows(state="leased")
        with self.transaction():
            for row in stale:
                self.finish_attempt(
                    row["exp_id"], row["n_tasks"], row["rep"], "reclaimed",
                    error="stale lease reclaimed on resume", now=now,
                )
        return len(stale)

    def attempt_rows(
        self, exp_id: Optional[int] = None, n_tasks: Optional[int] = None,
        rep: Optional[int] = None, state: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Attempt history folded from the log, optionally filtered by
        coordinates and state, in cell order and then attempt order.

        An attempt opens with its ``attempt_started`` record and is
        ``leased`` until the next record of its cell that
        :func:`closing_state` gives a state. ``state='leased'`` gives the
        open attempts: the cells running right now (or, with no live
        run, the ones a killed run left in flight).
        """
        rows: List[Dict[str, Any]] = []
        held: Dict[Tuple[int, int, int], Dict[str, Any]] = {}
        for record in self.ledger_records():
            closed = closing_state(record)
            if record.get("kind") == "attempt_started":
                cell = record_cell(record)
                held[cell] = dict(
                    zip(("exp_id", "n_tasks", "rep"), cell),
                    attempt=record.get("attempt"), state="leased",
                    worker=record.get("worker"), wall_start=record.get("wall"),
                    wall_end=None, error=None,
                )
                rows.append(held[cell])
            elif closed and record_cell(record) in held:
                row = held.pop(record_cell(record))
                row.update(
                    state=closed, wall_end=record.get("wall"),
                    error=record.get("error"),
                    worker=record.get("worker", row["worker"]),
                )
        want = {"exp_id": exp_id, "n_tasks": n_tasks, "rep": rep,
                "state": state}
        rows = [
            row for row in rows
            if all(v is None or row[k] == v for k, v in want.items())
        ]
        rows.sort(key=lambda r: (r["exp_id"], r["n_tasks"], r["rep"]))
        return rows

    def attempt_count(self) -> int:
        return len(self.attempt_rows())

    def lease_count(self) -> int:
        """Attempts still open — stale unless a run is live."""
        return len(self.attempt_rows(state="leased"))

    def committed_cells(self) -> set:
        """Coordinates of every committed repetition."""
        return {
            (int(e), int(n), int(r))
            for e, n, r in self._conn.execute(
                "SELECT exp_id, n_tasks, rep FROM runs"
            )
        }

    def error_cells(self) -> set:
        """Coordinates of every quarantined repetition."""
        return {
            (int(e), int(n), int(r))
            for e, n, r in self._conn.execute(
                "SELECT exp_id, n_tasks, rep FROM cell_errors"
            )
        }

    def delete_error(self, exp_id: int, n_tasks: int, rep: int) -> None:
        """Drop one quarantined cell (``--retry-errors`` re-dispatch)."""
        self._conn.execute(
            "DELETE FROM cell_errors WHERE exp_id=? AND n_tasks=? AND rep=?",
            (exp_id, n_tasks, rep),
        )

    def set_interrupted(self, flag: bool) -> None:
        """Record (or clear) the cleanly-interrupted marker."""
        self._conn.execute(
            "INSERT OR REPLACE INTO store_meta (key, value) "
            "VALUES ('interrupted', ?)",
            ("1" if flag else "0",),
        )

    def interrupted(self) -> bool:
        row = self._conn.execute(
            "SELECT value FROM store_meta WHERE key='interrupted'"
        ).fetchone()
        return bool(row) and row[0] == "1"

    def set_heartbeat(self, now: Optional[float] = None) -> None:
        """Stamp the campaign parent's liveness: its wall time now."""
        self._conn.execute(
            "INSERT OR REPLACE INTO store_meta (key, value) "
            "VALUES ('heartbeat', ?)",
            (repr(time.time() if now is None else float(now)),),
        )

    def heartbeat(self) -> Optional[float]:
        """The campaign parent's last liveness stamp, if it wrote one."""
        row = self._conn.execute(
            "SELECT value FROM store_meta WHERE key='heartbeat'"
        ).fetchone()
        return float(row[0]) if row else None

    def ingest(self, result: CampaignResult) -> Tuple[int, int]:
        """Import a whole campaign atomically; returns (runs, errors).

        ``repro migrate`` uses this for legacy JSON artifacts. Rows are
        keyed by their grid coordinates, so re-ingesting the same
        campaign is idempotent.
        """
        with self.transaction():
            for run in result.runs:
                self.put_run(run)
            for err in result.errors:
                self.put_error(err)
            if result.meta:
                self.set_campaign_meta(result.meta)
        return len(result.runs), len(result.errors)

    # -- reading ---------------------------------------------------------------

    def campaign_meta(self) -> Dict[str, Any]:
        row = self._conn.execute(
            "SELECT value FROM store_meta WHERE key='campaign'"
        ).fetchone()
        return json.loads(row[0]) if row else {}

    def run_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    def error_count(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM cell_errors"
        ).fetchone()[0]

    def cell_runs(self, exp_id: int, n_tasks: int) -> List[RunResult]:
        """All repetitions of one cell, reps ascending."""
        rows = self._conn.execute(
            "SELECT payload FROM runs WHERE exp_id=? AND n_tasks=? "
            "ORDER BY rep",
            (exp_id, n_tasks),
        ).fetchall()
        self.rows_read += len(rows)
        return [run_from_dict(json.loads(r[0])) for r in rows]

    def cells(self) -> List[Tuple[int, int]]:
        """Distinct ``(exp_id, n_tasks)`` cells, sorted."""
        return [
            (int(e), int(n))
            for e, n in self._conn.execute(
                "SELECT DISTINCT exp_id, n_tasks FROM runs "
                "ORDER BY exp_id, n_tasks"
            )
        ]

    def errors(self) -> List[CellError]:
        """Every failed repetition, in grid order when meta allows."""
        rows = self._conn.execute(
            "SELECT exp_id, n_tasks, rep, seq, payload FROM cell_errors"
        ).fetchall()
        self.rows_read += len(rows)
        key = _grid_sort_key(self.campaign_meta())
        rows.sort(key=lambda r: key(r[0], r[1], r[2], r[3]))
        return [error_from_dict(json.loads(r[4])) for r in rows]

    def ledger_rows(self, after: int = 0) -> List[Tuple[int, Dict[str, Any]]]:
        """``(seq, record)`` for every log row with ``seq > after``, in order."""
        return [
            (int(seq), json.loads(record))
            for seq, record in self._conn.execute(
                "SELECT seq, record FROM ledger WHERE seq > ? ORDER BY seq",
                (after,),
            )
        ]

    def ledger_records(self) -> List[Dict[str, Any]]:
        """The whole campaign log, in emission order."""
        return [record for _seq, record in self.ledger_rows()]

    def load_campaign(self) -> CampaignResult:
        """Materialize the whole campaign (the legacy-compatible view).

        Runs and errors come back in grid order — experiments x
        task_counts x reps, the order ``run_campaign`` returns them in —
        whenever the stored campaign meta describes the grid; rows
        outside the described grid (or with no meta at all) keep their
        insertion order after it.
        """
        meta = self.campaign_meta()
        result = CampaignResult(meta=meta)
        rows = self._conn.execute(
            "SELECT exp_id, n_tasks, rep, seq, payload FROM runs"
        ).fetchall()
        self.rows_read += len(rows)
        key = _grid_sort_key(meta)
        rows.sort(key=lambda r: key(r[0], r[1], r[2], r[3]))
        for r in rows:
            result.add(run_from_dict(json.loads(r[4])))
        result.errors.extend(self.errors())
        return result


def _positions(value: Any) -> Dict[int, int]:
    """``[3, 1]`` -> ``{3: 0, 1: 1}``; anything malformed -> ``{}``."""
    try:
        return {int(v): i for i, v in enumerate(value or ())}
    except (TypeError, ValueError):
        return {}


def _grid_sort_key(meta: Dict[str, Any]):
    """Sort key restoring the grid order from campaign meta."""
    exp_pos = _positions(meta.get("experiments"))
    size_pos = _positions(meta.get("task_counts"))

    def key(exp_id: int, n_tasks: int, rep: int, seq: int):
        if exp_id in exp_pos and n_tasks in size_pos:
            return (0, exp_pos[exp_id], size_pos[n_tasks], rep, seq)
        return (1, seq, 0, 0, 0)

    return key


def migrate_json(json_path: str, store_path: str) -> CampaignStore:
    """Import a legacy campaign JSON artifact into a store (idempotent).

    Returns the open read-write :class:`CampaignStore`; the caller
    closes it. Re-running the migration replaces the same rows with the
    same content, so a store migrated twice is byte-for-byte the same
    campaign.
    """
    from .io import load_campaign

    result = load_campaign(json_path)
    store = CampaignStore(store_path)
    n_runs, n_errors = store.ingest(result)
    log.info(
        "migrated %s -> %s: %d runs, %d errors",
        json_path, store_path, n_runs, n_errors,
    )
    return store


def open_campaign(path: str) -> CampaignStore:
    """Open any campaign artifact for reading; the caller closes it.

    A store file opens read-only. A JSON artifact is migrated into a
    private in-memory store, so every reader goes through one read
    model whichever kind of file it was handed.
    """
    if is_store(path):
        return CampaignStore(path, readonly=True)
    return migrate_json(path, ":memory:")


def store_summary(store: CampaignStore) -> Dict[str, Any]:
    """Compact provenance block for reports: counts, cells, file size."""
    size = 0
    for suffix in ("", "-wal", "-shm"):
        try:
            size += os.path.getsize(store.path + suffix)
        except OSError:
            pass
    attempts = store.attempt_rows()
    return {
        "path": store.path,
        "runs": store.run_count(),
        "errors": store.error_count(),
        "cells": len(store.cells()),
        "size_bytes": size,
        "attempts": len(attempts),
        "stale_leases": sum(row["state"] == "leased" for row in attempts),
        "interrupted": store.interrupted(),
    }


def closing_state(record: Dict[str, Any]) -> Optional[str]:
    """The state an attempt ends in when ``record`` closes it, or ``None``
    when the record closes no attempt.

    The one test of whether a log record closes its cell's open attempt
    (the inverse of :meth:`CampaignStore.finish_attempt`): the store's
    attempt history, resume's reclaim, :func:`store_summary` and the
    monitor's running cells all fold the log through it.
    """
    kind = record.get("kind")
    if kind == "cell":
        return "committed" if record.get("ok") else "failed"
    if kind == "attempt_timeout":
        return "timeout"
    if kind == "attempt_lost":
        return str(record.get("state", "lost"))
    return None


def record_cell(record: Dict[str, Any]) -> Tuple[int, int, int]:
    """The ``(exp_id, n_tasks, rep)`` cell a log record names."""
    return (int(record["exp"]), int(record["n"]), int(record["rep"]))
