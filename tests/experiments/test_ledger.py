"""The campaign observatory: the store's campaign log, progress, tail."""

import json

import pytest

from repro.experiments import (
    CampaignStore,
    CellProgress,
    RunLedger,
    flag_anomalies,
    render_tail,
    run_campaign,
)
from repro.experiments.monitor import CampaignMonitor
from repro.experiments.campaign import RunResult


def _run(**over):
    base = dict(
        exp_id=1, n_tasks=8, rep=0, resources=("stampede-sim",),
        ttc=1000.0, tw=100.0, tw_last=100.0, tx=800.0, ts=50.0, trp=50.0,
        pilot_waits=(100.0,), units_done=8, restarts=0, events=500,
        attribution=(
            ("tw", 100.0), ("tr", 0.0), ("tx", 800.0),
            ("ts", 50.0), ("trp", 40.0), ("idle", 10.0),
        ),
        attribution_digest="ab" * 32,
    )
    base.update(over)
    return RunResult(**base)


class TestFlagAnomalies:
    def test_clean_run_has_no_flags(self):
        assert flag_anomalies(_run()) == []

    def test_incomplete_and_restarts(self):
        flags = flag_anomalies(_run(units_done=5, restarts=2))
        assert "incomplete" in flags and "restarts" in flags

    def test_idle_heavy(self):
        run = _run(attribution=(
            ("tw", 100.0), ("tr", 0.0), ("tx", 700.0),
            ("ts", 50.0), ("trp", 40.0), ("idle", 110.0),
        ))
        assert "idle-heavy" in flag_anomalies(run)


def write_log(path, records):
    """A store at ``path`` whose campaign log holds ``records``; an
    ``attempt_started`` record among them is an open attempt."""
    with CampaignStore(path) as store:
        for record in records:
            store.append_ledger(record)
    return path


class TestRunLedger:
    def _write(self, ledger):
        ledger.campaign_start(total=2, meta={"seed": 7})
        ledger.cell(
            CellProgress(1, 2, (1, 8, 0), wall_s=0.5, ttc=1000.0),
            run=_run(), worker=123,
        )
        ledger.cell(
            CellProgress(2, 2, (1, 8, 1), wall_s=0.4, error="boom"),
        )
        ledger.campaign_end(completed=1, errors=1, wall_s=0.9)

    def test_stream_and_read_back(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            with RunLedger(store) as ledger:
                self._write(ledger)
            records = store.ledger_records()
        kinds = [r["kind"] for r in records]
        assert kinds == ["campaign-start", "cell", "cell", "campaign-end"]
        ok_cell = records[1]
        assert ok_cell["ok"] and ok_cell["worker"] == 123
        assert ok_cell["attribution_digest"] == "ab" * 32
        bad_cell = records[2]
        assert not bad_cell["ok"] and bad_cell["error"] == "boom"
        assert bad_cell["anomalies"] == ["error"]

    def test_cell_records_carry_components(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            with RunLedger(store) as ledger:
                self._write(ledger)
            cell = store.ledger_records()[1]
        # per-component TTC shares, which the live views render
        assert cell["components"] == dict(_run().attribution)

    def test_lines_are_valid_ndjson(self, tmp_path):
        path = tmp_path / "l.ndjson"
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            with RunLedger(store, path=str(path)) as ledger:
                ledger.campaign_start(total=1, meta={"note": "expérience"})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [
            "campaign-start"
        ]

    def test_mirrors_into_store(self, tmp_path):
        """The NDJSON file is an export of the store's log, line for line."""
        ndjson = tmp_path / "l.ndjson"
        with CampaignStore(str(tmp_path / "l.sqlite")) as store:
            with RunLedger(store, path=str(ndjson)) as ledger:
                self._write(ledger)
                # nothing is exported before the ledger closes
                assert not ndjson.exists()
            records = store.ledger_records()
        lines = ndjson.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == records
        assert lines == [json.dumps(r, sort_keys=True) for r in records]

    def test_store_only_ledger_needs_no_file(self, tmp_path):
        with CampaignStore(str(tmp_path / "l.sqlite")) as store:
            with RunLedger(store) as ledger:
                ledger.campaign_start(total=0, meta={})
            records = store.ledger_records()
        assert [r["kind"] for r in records] == ["campaign-start"]
        assert all(p.name.startswith("l.sqlite") for p in tmp_path.iterdir())

    def test_ledger_requires_some_sink(self):
        with pytest.raises(ValueError):
            RunLedger(None)


class TestLedgerProgress:
    """Progress as the monitor folds it from ``RunLedger``-shaped records."""

    def _records(self):
        return [
            {"kind": "campaign-start", "total": 4,
             "meta": {"experiments": [1], "task_counts": [8, 16],
                      "reps": 2}},
            {"kind": "cell", "exp": 1, "n": 8, "rep": 0, "ok": True,
             "wall_s": 2.0},
            {"kind": "cell", "exp": 1, "n": 8, "rep": 1, "ok": False,
             "wall_s": 1.0, "anomalies": ["error"]},
        ]

    @pytest.fixture()
    def fold(self, tmp_path):
        monitors = []

        def fold(records):
            path = write_log(str(tmp_path / f"{len(monitors)}.sqlite"),
                             records)
            monitors.append(CampaignMonitor(path))
            return monitors[-1]

        yield fold
        for monitor in monitors:
            monitor.close()

    def test_progress_snapshot(self, fold):
        monitor = fold(self._records())
        state = monitor.state()
        assert state["total"] == 4 and state["done"] == 2
        assert state["errors"] == 1 and not state["finished"]
        # both n=16 cells left, at the exp1 n=8 cells' wall per cost
        assert state["eta_s"] == pytest.approx(3.0 / 336 * 352)
        assert [r["cell"] for r in monitor.grid() if r.get("anomalies")] == [
            [1, 8, 1]
        ]

    def test_finished_campaign(self, fold):
        records = self._records() + [
            {"kind": "cell", "exp": 1, "n": 16, "rep": 0, "ok": True,
             "wall_s": 1.0},
            {"kind": "cell", "exp": 1, "n": 16, "rep": 1, "ok": True,
             "wall_s": 1.0},
            {"kind": "campaign-end", "completed": 3, "errors": 1,
             "wall_s": 5.0},
        ]
        state = fold(records).state()
        assert state["finished"] and state["done"] == 4
        assert state["eta_s"] == 0.0

    def test_render_tail(self, fold):
        text = render_tail(fold(self._records()))
        assert "2/4" in text
        assert "running" in text
        assert "ERR exp1 n=8 rep=1" in text


class TestEndToEnd:
    def test_campaign_streams_a_ledger(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        with CampaignStore(path) as store:
            with RunLedger(store) as ledger:
                result = run_campaign(
                    experiments=(3,), task_counts=(8,), reps=2,
                    campaign_seed=21, ledger=ledger, store=store,
                )
            records = store.ledger_records()
        cells = [r for r in records if r["kind"] == "cell"]
        assert len(cells) == len(result.runs) == 2
        assert all("worker" in rec for rec in cells)
        assert records[0]["kind"] == "campaign-start"
        assert records[0]["meta"]["campaign_seed"] == 21
        assert records[-1]["kind"] == "campaign-end"
        for rec, run in zip(cells, result.runs):
            assert rec["attribution_digest"] == run.attribution_digest
            assert rec["ttc"] == run.ttc
        with CampaignMonitor(path) as monitor:
            assert "finished" in render_tail(monitor)

    def test_parallel_campaign_streams_a_ledger(self, tmp_path):
        path = str(tmp_path / "p.sqlite")
        with CampaignStore(path) as store:
            with RunLedger(store) as ledger:
                result = run_campaign(
                    experiments=(3,), task_counts=(8,), reps=2,
                    campaign_seed=21, jobs=2, ledger=ledger, store=store,
                )
            records = store.ledger_records()
        cells = [r for r in records if r["kind"] == "cell"]
        assert len(cells) == len(result.runs) == 2
        assert all("worker" in rec for rec in cells)
        with CampaignMonitor(path) as monitor:
            state = monitor.state()
        assert state["finished"] and state["done"] == 2
