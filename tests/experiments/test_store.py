"""Unit tests for the indexed campaign result store (repository layer)."""

import json
import os
import sqlite3

import pytest

from repro.cli import main
from repro.experiments import CampaignStore, is_store, store_summary
from repro.experiments.campaign import (
    CampaignResult,
    CellError,
    RunResult,
    campaign_meta,
)
from repro.experiments.store import STORE_FORMAT


def _run(**over):
    base = dict(
        exp_id=1, n_tasks=8, rep=0, resources=("stampede-sim",),
        ttc=1000.0, tw=100.0, tw_last=100.0, tx=800.0, ts=50.0, trp=50.0,
        pilot_waits=(100.0,), units_done=8, restarts=0, events=500,
        digest="cd" * 32,
        attribution=(
            ("tw", 100.0), ("tr", 0.0), ("tx", 800.0),
            ("ts", 50.0), ("trp", 40.0), ("idle", 10.0),
        ),
        attribution_digest="ab" * 32,
    )
    base.update(over)
    return RunResult(**base)


@pytest.fixture
def store(tmp_path):
    with CampaignStore(str(tmp_path / "c.sqlite")) as st:
        yield st


class TestBasics:
    def test_wal_mode_is_on(self, store):
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_is_store_sniffs_the_magic(self, store, tmp_path):
        assert is_store(store.path)
        json_path = tmp_path / "c.json"
        json_path.write_text('{"format": 1, "runs": []}')
        assert not is_store(str(json_path))
        assert not is_store(str(tmp_path / "missing"))

    def test_put_get_single_run(self, store):
        run = _run()
        store.put_run(run)
        assert store.run_count() == 1
        assert store.load_campaign().cell(1, 8) == [run]
        assert store.load_campaign().cell(1, 16) == []

    def test_put_is_idempotent_by_coordinates(self, store):
        store.put_run(_run(ttc=1000.0))
        store.put_run(_run(ttc=2000.0))  # same (exp, n, rep): replace
        assert store.run_count() == 1
        assert [r.ttc for r in store.load_campaign().cell(1, 8)] == [2000.0]

    def test_cell_runs_ordered_by_rep(self, store):
        store.set_campaign_meta(campaign_meta([1], [8], 3, 0))
        for rep in (2, 0, 1):
            store.put_run(_run(rep=rep))
        assert [r.rep for r in store.load_campaign().cell(1, 8)] == [0, 1, 2]
        assert store.load_campaign().cell(9, 9) == []

    def test_cells_sorted(self, store):
        for exp_id, n_tasks in ((3, 16), (1, 8), (3, 8)):
            store.put_run(_run(exp_id=exp_id, n_tasks=n_tasks))
        assert store.cells() == [(1, 8), (3, 8), (3, 16)]

    def test_errors_roundtrip(self, store):
        err = CellError(3, 16, 1, "boom: unicode résumé ✓")
        store.put_error(err)
        assert store.error_count() == 1
        assert store.errors() == [err]

    def test_meta_roundtrip(self, store):
        meta = {"campaign_seed": 7, "experiments": [1, 3],
                "task_counts": [8], "reps": 2, "resource_pool": None}
        store.set_campaign_meta(meta)
        assert store.campaign_meta() == meta

    def test_ledger_mirror_roundtrip(self, store):
        store.append_ledger({"kind": "campaign-start", "total": 2})
        store.append_ledger({"kind": "cell", "exp": 1, "n": 8, "rep": 0})
        records = store.ledger_records()
        assert [r["kind"] for r in records] == ["campaign-start", "cell"]

    def test_nan_ttc_survives_via_payload(self, store):
        store.put_run(_run(ttc=float("nan")))
        (got,) = store.load_campaign().cell(1, 8)
        assert got.ttc != got.ttc  # NaN round-trips through the payload
        # and the scalar column holds NULL, not a bogus number
        row = store._conn.execute("SELECT ttc FROM runs").fetchone()
        assert row[0] is None

    def test_store_summary_counts(self, store):
        store.put_run(_run(rep=0))
        store.put_run(_run(rep=1))
        store.put_error(CellError(1, 8, 2, "x"))
        summary = store_summary(store)
        assert summary["runs"] == 2 and summary["errors"] == 1
        assert summary["cells"] == 1 and summary["size_bytes"] > 0


class TestLoadCampaign:
    def test_grid_order_restored_from_meta(self, store):
        # insert out of grid order; meta defines the loop nest
        store.set_campaign_meta({
            "experiments": [3, 1], "task_counts": [16, 8], "reps": 2,
        })
        grid = [(3, 16, 0), (3, 16, 1), (3, 8, 0), (3, 8, 1),
                (1, 16, 0), (1, 16, 1), (1, 8, 0), (1, 8, 1)]
        for exp, n, rep in reversed(grid):
            store.put_run(_run(exp_id=exp, n_tasks=n, rep=rep))
        result = store.load_campaign()
        assert [(r.exp_id, r.n_tasks, r.rep) for r in result.runs] == grid

    def test_no_meta_falls_back_to_insertion_order(self, store):
        store.put_run(_run(exp_id=3, n_tasks=16, rep=1))
        store.put_run(_run(exp_id=1, n_tasks=8, rep=0))
        result = store.load_campaign()
        assert [(r.exp_id, r.n_tasks) for r in result.runs] == [
            (3, 16), (1, 8),
        ]

    def test_empty_store_loads_empty_campaign(self, store):
        result = store.load_campaign()
        assert result.runs == [] and result.errors == [] and result.meta == {}

    def test_ingest_campaign_result(self, store):
        result = CampaignResult(meta={"campaign_seed": 1})
        result.add(_run(rep=0))
        result.add(_run(rep=1))
        result.errors.append(CellError(1, 8, 2, "lost"))
        assert store.ingest(result) == (2, 1)
        again = store.load_campaign()
        assert again.runs == result.runs
        assert again.errors == result.errors
        assert again.meta == result.meta


class TestReadonlyAndVersioning:
    def test_readonly_handle_reads_but_cannot_write(self, store):
        store.put_run(_run())
        ro = CampaignStore(store.path, readonly=True)
        assert ro.run_count() == 1
        assert ro.load_campaign().cell(1, 8) == [_run()]
        with pytest.raises(sqlite3.OperationalError):
            ro.put_run(_run(rep=5))
        ro.close()

    def test_future_format_rejected(self, store, tmp_path):
        store._conn.execute(
            "UPDATE store_meta SET value=? WHERE key='format'",
            (str(STORE_FORMAT + 1),),
        )
        with pytest.raises(ValueError, match="unsupported store format"):
            CampaignStore(store.path)

    @staticmethod
    def _format_1_store(path):
        """A finished campaign as format 1 wrote it: its ``attempts``
        table beside the log, and ``format`` 1."""
        assert main(["campaign", "--experiments", "1", "--sizes", "8",
                     "--reps", "2", "--seed", "3", "-q", "--store", path]) == 0
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE store_meta SET value='1' WHERE key='format'")
            conn.execute(
                "CREATE TABLE attempts (exp_id INTEGER NOT NULL, "
                "n_tasks INTEGER NOT NULL, rep INTEGER NOT NULL, "
                "attempt INTEGER NOT NULL, state TEXT NOT NULL, "
                "worker INTEGER, wall_start REAL, wall_end REAL, "
                "heartbeat REAL, error TEXT, "
                "PRIMARY KEY (exp_id, n_tasks, rep, attempt))"
            )
            conn.executemany(
                "INSERT INTO attempts (exp_id, n_tasks, rep, attempt, state) "
                "VALUES (1, 8, ?, 1, 'committed')", [(0,), (1,)],
            )
        conn.close()
        return path

    def test_format_1_store_refused_read_write(self, tmp_path, capsys):
        path = self._format_1_store(str(tmp_path / "old.sqlite"))
        with pytest.raises(ValueError) as err:
            CampaignStore(path)
        message = str(err.value)
        assert "unsupported store format '1'" in message
        assert "fresh path" in message and "repro analyze" in message
        capsys.readouterr()
        assert main(["campaign", "--experiments", "1", "--sizes", "8",
                     "--reps", "2", "--seed", "3", "-q", "--store", path,
                     "--resume"]) == 2
        assert "unsupported store format '1'" in capsys.readouterr().err
        with CampaignStore(path, readonly=True) as store:
            assert store.run_count() == 2  # refused before any write

    def test_format_1_store_opens_for_readers(self, tmp_path, capsys):
        path = self._format_1_store(str(tmp_path / "old.sqlite"))
        capsys.readouterr()
        assert main(["analyze", path, "--update-baseline", "--baseline",
                     str(tmp_path / "b.json")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("campaign: 2 runs, 0 errors")
        assert "execution history: 2 attempt(s) recorded, 0 stale" in out
        assert main(["tail", path]) == 0
        assert "campaign finished  2/2 cells" in capsys.readouterr().out
        assert main(["watch", path, "--once", "--no-color"]) == 0
        assert "2/2 cells" in capsys.readouterr().out
        report = str(tmp_path / "r.html")
        assert main(["report", path, "-o", report]) == 0
        assert os.path.getsize(report) > 0

    def test_fresh_store_has_no_attempts_table(self, store):
        tables = {
            name for (name,) in store._conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        assert "attempts" not in tables
        assert {"runs", "cell_errors", "ledger", "store_meta"} <= tables

    def test_reopen_preserves_rows(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        with CampaignStore(path) as st:
            st.put_run(_run())
        with CampaignStore(path) as st:
            assert st.run_count() == 1


class TestRowReadAccounting:
    def test_counts_only_materialized_rows(self, store):
        for rep in range(5):
            store.put_run(_run(rep=rep))
        store.put_run(_run(n_tasks=16))
        assert store.rows_read == 0
        store.run_count()  # counting never materializes rows
        assert store.rows_read == 0
        store.load_campaign()
        assert store.rows_read == 6
