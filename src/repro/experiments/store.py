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
  the only campaign log: ``repro tail``, ``repro watch`` and the
  ``--serve`` endpoints all fold it by ``seq``;
* ``attempts`` — the per-dispatch lease/attempt history: one row per
  dispatch of a cell (attempt number, state ``leased``/``committed``/
  ``failed``/``timeout``/``crashed``/``reclaimed``/``interrupted``/
  ``drained``, worker pid, wall start/end, parent heartbeat, error) —
  see :mod:`repro.experiments.resilience`;
* ``store_meta`` — format version, the campaign provenance dict, and
  the cleanly-interrupted flag.

The store holds primary data only: the sentinel fingerprint and the
config digest are derived from these rows whenever they are needed.

Concurrency contract: exactly one writer (the campaign runner's parent
process — workers never touch the store), any number of readers. WAL
mode gives readers a consistent committed snapshot while the writer
appends; every ``put_*`` is one transaction, so a reader can never
observe a torn or partial row and a crashed writer leaves no orphan
rows — whatever committed is whole, the in-flight cell simply is not
there.

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
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .campaign import CampaignResult, CellError, RunResult
from .io import error_from_dict, error_to_dict, run_from_dict, run_to_dict

log = logging.getLogger(__name__)

STORE_FORMAT = 1

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
CREATE TABLE IF NOT EXISTS attempts (
    exp_id     INTEGER NOT NULL,
    n_tasks    INTEGER NOT NULL,
    rep        INTEGER NOT NULL,
    attempt    INTEGER NOT NULL,
    state      TEXT NOT NULL,
    worker     INTEGER,
    wall_start REAL,
    wall_end   REAL,
    heartbeat  REAL,
    error      TEXT,
    PRIMARY KEY (exp_id, n_tasks, rep, attempt)
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
            raise ValueError(
                f"unsupported store format {row[0]!r} in {self.path} "
                f"(expected {STORE_FORMAT})"
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

    # -- leases / attempts -----------------------------------------------------

    def begin_attempt(
        self, exp_id: int, n_tasks: int, rep: int,
        worker: Optional[int] = None, now: Optional[float] = None,
    ) -> int:
        """Open a ``leased`` attempt row for one dispatch of one cell.

        Attempt numbers continue from whatever the store already holds,
        so a resumed campaign's history reads as one sequence. Returns
        the attempt number.
        """
        now = time.time() if now is None else now
        attempt = self._conn.execute(
            "SELECT COALESCE(MAX(attempt), 0) + 1 FROM attempts "
            "WHERE exp_id=? AND n_tasks=? AND rep=?",
            (exp_id, n_tasks, rep),
        ).fetchone()[0]
        self._conn.execute(
            "INSERT INTO attempts "
            "(exp_id, n_tasks, rep, attempt, state, worker, wall_start, "
            " heartbeat) VALUES (?, ?, ?, ?, 'leased', ?, ?, ?)",
            (exp_id, n_tasks, rep, attempt, worker, now, now),
        )
        return int(attempt)

    def finish_attempt(
        self, exp_id: int, n_tasks: int, rep: int, attempt: int,
        state: str, error: Optional[str] = None,
        worker: Optional[int] = None, now: Optional[float] = None,
    ) -> None:
        """Close one attempt row (``committed``/``failed``/``timeout``...)."""
        now = time.time() if now is None else now
        if worker is not None:
            self._conn.execute(
                "UPDATE attempts SET state=?, wall_end=?, error=?, worker=? "
                "WHERE exp_id=? AND n_tasks=? AND rep=? AND attempt=?",
                (state, now, error, worker, exp_id, n_tasks, rep, attempt),
            )
        else:
            self._conn.execute(
                "UPDATE attempts SET state=?, wall_end=?, error=? "
                "WHERE exp_id=? AND n_tasks=? AND rep=? AND attempt=?",
                (state, now, error, exp_id, n_tasks, rep, attempt),
            )

    def heartbeat_attempts(
        self, leases: Iterable[Tuple[Tuple[int, int, int], int]],
        now: Optional[float] = None,
    ) -> None:
        """Stamp the parent-side heartbeat on a batch of open leases."""
        now = time.time() if now is None else now
        self._conn.executemany(
            "UPDATE attempts SET heartbeat=? "
            "WHERE exp_id=? AND n_tasks=? AND rep=? AND attempt=? "
            "AND state='leased'",
            [(now, *cell, attempt) for cell, attempt in leases],
        )

    def reclaim_stale_leases(self, now: Optional[float] = None) -> int:
        """Close every still-``leased`` attempt as ``reclaimed``.

        Called by resume planning: any lease left open belongs to a run
        that died (SIGKILL, power loss) — its cell never committed, so
        it is safe and necessary to re-dispatch.
        """
        now = time.time() if now is None else now
        cur = self._conn.execute(
            "UPDATE attempts SET state='reclaimed', wall_end=?, "
            "error='stale lease reclaimed on resume' WHERE state='leased'",
            (now,),
        )
        return cur.rowcount

    def attempt_rows(
        self, exp_id: Optional[int] = None, n_tasks: Optional[int] = None,
        rep: Optional[int] = None, state: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Attempt history, optionally filtered by coordinates and state.

        ``state='leased'`` gives the open leases: the cells running right
        now (or, with no live run, the ones a killed run left in flight).
        """
        clauses, params = [], []
        for name, value in (
            ("exp_id", exp_id), ("n_tasks", n_tasks), ("rep", rep),
            ("state", state),
        ):
            if value is not None:
                clauses.append(f"{name}=?")
                params.append(value)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        cols = (
            "exp_id", "n_tasks", "rep", "attempt", "state", "worker",
            "wall_start", "wall_end", "heartbeat", "error",
        )
        rows = self._conn.execute(
            f"SELECT {', '.join(cols)} FROM attempts{where} "
            "ORDER BY exp_id, n_tasks, rep, attempt",
            params,
        ).fetchall()
        return [dict(zip(cols, r)) for r in rows]

    def attempt_count(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM attempts"
        ).fetchone()[0]

    def lease_count(self) -> int:
        """Attempts still open (``leased``) — stale unless a run is live."""
        return self._conn.execute(
            "SELECT COUNT(*) FROM attempts WHERE state='leased'"
        ).fetchone()[0]

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
    return {
        "path": store.path,
        "runs": store.run_count(),
        "errors": store.error_count(),
        "cells": len(store.cells()),
        "size_bytes": size,
        "attempts": store.attempt_count(),
        "stale_leases": store.lease_count(),
        "interrupted": store.interrupted(),
    }
