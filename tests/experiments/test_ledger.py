"""The campaign observatory: NDJSON run ledger, progress, and tail view."""

import json

import pytest

from repro.experiments import (
    CellProgress,
    RunLedger,
    flag_anomalies,
    monitor_from_path,
    read_ledger,
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


class TestRunLedger:
    def test_stream_and_read_back(self, tmp_path):
        path = str(tmp_path / "campaign.ndjson")
        with RunLedger(path) as ledger:
            ledger.campaign_start(total=2, meta={"seed": 7})
            ledger.cell(
                CellProgress(1, 2, (1, 8, 0), wall_s=0.5, ttc=1000.0),
                run=_run(), worker=123,
            )
            ledger.cell(
                CellProgress(2, 2, (1, 8, 1), wall_s=0.4,
                             error="boom"),
            )
            ledger.campaign_end(completed=1, errors=1, wall_s=0.9)
        records = read_ledger(path)
        kinds = [r["kind"] for r in records]
        assert kinds == ["campaign-start", "cell", "cell", "campaign-end"]
        ok_cell = records[1]
        assert ok_cell["ok"] and ok_cell["worker"] == 123
        assert ok_cell["attribution_digest"] == "ab" * 32
        bad_cell = records[2]
        assert not bad_cell["ok"] and bad_cell["error"] == "boom"
        assert bad_cell["anomalies"] == ["error"]

    def test_lines_are_valid_ndjson(self, tmp_path):
        path = str(tmp_path / "l.ndjson")
        with RunLedger(path) as ledger:
            ledger.campaign_start(total=1, meta={})
        for line in open(path, encoding="utf-8"):
            json.loads(line)

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "l.ndjson")
        with RunLedger(path) as ledger:
            ledger.campaign_start(total=4, meta={})
            ledger.cell(CellProgress(1, 4, (1, 8, 0), wall_s=0.1))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "cell", "exp": 1, "n": 8,')  # writer mid-line
        records = read_ledger(path)
        assert [r["kind"] for r in records] == ["campaign-start", "cell"]

    def test_line_torn_mid_utf8_character_is_tolerated(self, tmp_path):
        """Regression: a tail cut through a multi-byte UTF-8 character.

        The old text-mode reader decoded the whole file up front, so a
        torn trailing line split *inside* one character ('é' is two
        bytes) raised UnicodeDecodeError and lost every earlier record.
        The reader now decodes per line and treats the torn tail like
        any other partial write: ignored.
        """
        path = str(tmp_path / "l.ndjson")
        with RunLedger(path) as ledger:
            ledger.campaign_start(total=4, meta={"note": "expérience"})
            ledger.cell(CellProgress(1, 4, (1, 8, 0), wall_s=0.1))
        torn = '{"kind": "cell", "error": "é'.encode("utf-8")[:-1]
        with open(path, "ab") as fh:
            fh.write(torn)  # writer died one byte into 'é'
        records = read_ledger(path)
        assert [r["kind"] for r in records] == ["campaign-start", "cell"]
        assert records[0]["meta"]["note"] == "expérience"

    def test_mirrors_into_store(self, tmp_path):
        from repro.experiments import CampaignStore, read_ledger_any

        ndjson = str(tmp_path / "l.ndjson")
        sqlite_path = str(tmp_path / "l.sqlite")
        with CampaignStore(sqlite_path) as store:
            with RunLedger(ndjson, store=store) as ledger:
                ledger.campaign_start(total=1, meta={"seed": 7})
                ledger.cell(
                    CellProgress(1, 1, (1, 8, 0), wall_s=0.5, ttc=9.0),
                    run=_run(), worker=5,
                )
                ledger.campaign_end(completed=1, errors=0, wall_s=0.5)
            # both representations carry the identical event stream
            assert store.ledger_records() == read_ledger(ndjson)
        # and read_ledger_any dispatches on the artifact kind
        assert read_ledger_any(sqlite_path) == read_ledger_any(ndjson)

    def test_store_only_ledger_needs_no_file(self, tmp_path):
        from repro.experiments import CampaignStore, read_ledger_any

        sqlite_path = str(tmp_path / "l.sqlite")
        with CampaignStore(sqlite_path) as store:
            with RunLedger(store=store) as ledger:
                ledger.campaign_start(total=0, meta={})
            records = store.ledger_records()
        assert [r["kind"] for r in records] == ["campaign-start"]
        assert read_ledger_any(sqlite_path) == records

    def test_ledger_requires_some_sink(self):
        with pytest.raises(ValueError):
            RunLedger()

    def test_bus_only_ledger_publishes_every_record(self):
        from repro.telemetry.bus import EventBus

        bus = EventBus()
        sub = bus.subscribe()
        with RunLedger(bus=bus) as ledger:
            ledger.campaign_start(total=1, meta={"seed": 7})
            ledger.cell(
                CellProgress(1, 1, (1, 8, 0), wall_s=0.5, ttc=9.0),
                run=_run(), worker=5,
            )
            ledger.campaign_end(completed=1, errors=0, wall_s=0.5)
        events = sub.drain()
        assert [e["kind"] for e in events] == [
            "campaign-start", "cell", "campaign-end",
        ]
        # cell records carry the attribution components for live views
        assert events[1]["components"] == dict(_run().attribution)

    def test_heartbeat_is_bus_only(self, tmp_path):
        from repro.telemetry.bus import EventBus

        path = str(tmp_path / "l.ndjson")
        bus = EventBus()
        sub = bus.subscribe()
        with RunLedger(path, bus=bus) as ledger:
            ledger.campaign_start(total=1, meta={})
            ledger.heartbeat([(1, 8, 0)], workers=(42,))
        pulses = [e for e in sub.drain() if e["kind"] == "heartbeat"]
        assert len(pulses) == 1
        assert pulses[0]["cells"] == [[1, 8, 0]]
        assert pulses[0]["workers"] == [42]
        # the durable file never sees the pulse
        kinds = [r["kind"] for r in read_ledger(path)]
        assert kinds == ["campaign-start"]


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

    def _fold(self, records):
        monitor = CampaignMonitor()
        monitor.feed_many(records)
        return monitor

    def test_progress_snapshot(self):
        monitor = self._fold(self._records())
        state = monitor.state()
        assert state["total"] == 4 and state["done"] == 2
        assert state["errors"] == 1 and not state["finished"]
        # both n=16 cells left, at the exp1 n=8 cells' wall per cost
        assert state["eta_s"] == pytest.approx(3.0 / 336 * 352)
        assert [r["cell"] for r in monitor.grid() if r.get("anomalies")] == [
            [1, 8, 1]
        ]

    def test_finished_campaign(self):
        records = self._records() + [
            {"kind": "cell", "exp": 1, "n": 16, "rep": 0, "ok": True,
             "wall_s": 1.0},
            {"kind": "cell", "exp": 1, "n": 16, "rep": 1, "ok": True,
             "wall_s": 1.0},
            {"kind": "campaign-end", "completed": 3, "errors": 1,
             "wall_s": 5.0},
        ]
        state = self._fold(records).state()
        assert state["finished"] and state["done"] == 4
        assert state["eta_s"] == 0.0

    def test_render_tail(self):
        text = render_tail(self._fold(self._records()))
        assert "2/4" in text
        assert "running" in text
        assert "ERR exp1 n=8 rep=1" in text


class TestEndToEnd:
    def test_campaign_streams_a_ledger(self, tmp_path):
        path = str(tmp_path / "c.ndjson")
        with RunLedger(path) as ledger:
            result = run_campaign(
                experiments=(3,), task_counts=(8,), reps=2,
                campaign_seed=21, ledger=ledger,
            )
        records = read_ledger(path)
        cells = [r for r in records if r["kind"] == "cell"]
        assert len(cells) == len(result.runs) == 2
        assert all("worker" in rec for rec in cells)
        assert records[0]["kind"] == "campaign-start"
        assert records[0]["meta"]["campaign_seed"] == 21
        assert records[-1]["kind"] == "campaign-end"
        for rec, run in zip(cells, result.runs):
            assert rec["attribution_digest"] == run.attribution_digest
            assert rec["ttc"] == run.ttc
        assert "finished" in render_tail(monitor_from_path(path))

    def test_parallel_campaign_streams_a_ledger(self, tmp_path):
        path = str(tmp_path / "p.ndjson")
        with RunLedger(path) as ledger:
            result = run_campaign(
                experiments=(3,), task_counts=(8,), reps=2,
                campaign_seed=21, jobs=2, ledger=ledger,
            )
        records = read_ledger(path)
        cells = [r for r in records if r["kind"] == "cell"]
        assert len(cells) == len(result.runs) == 2
        assert all("worker" in rec for rec in cells)
        state = monitor_from_path(path).state()
        assert state["finished"] and state["done"] == 2
