"""CampaignMonitor folding, the watch renderer, and live-file re-reads."""

import io
import json
import threading
import time
import urllib.request

from repro.cli import _EtaProgress, main
from repro.experiments import (
    CampaignStore,
    CellProgress,
    MonitorServer,
    RunLedger,
    monitor_from_path,
    render_dashboard,
    run_campaign,
)
from repro.experiments.monitor import CampaignMonitor, host_sample
from repro.experiments.runner import cell_cost
from repro.telemetry.bus import EventBus

from .test_ledger import _run


def _feed_basic(monitor):
    """One started campaign: 1 ok cell, 1 error, 1 running, 1 pending."""
    monitor.feed({
        "kind": "campaign-start", "total": 4, "wall": 100.0,
        "meta": {"experiments": [1], "task_counts": [8, 16], "reps": 2},
    })
    monitor.feed({
        "kind": "attempt_started", "exp": 1, "n": 8, "rep": 0,
        "attempt": 1, "worker": 11, "wall": 100.5,
    })
    monitor.feed({
        "kind": "cell", "exp": 1, "n": 8, "rep": 0, "ok": True,
        "done": 1, "total": 4, "wall_s": 2.0, "worker": 11, "ttc": 100.0,
        "wall": 102.5, "components": {"tx": 70.0, "tw": 30.0},
    })
    monitor.feed({
        "kind": "cell", "exp": 1, "n": 8, "rep": 1, "ok": False,
        "done": 2, "total": 4, "wall_s": 1.0, "error": "boom",
        "wall": 103.0, "anomalies": ["error"],
    })
    monitor.feed({
        "kind": "attempt_started", "exp": 1, "n": 16, "rep": 0,
        "attempt": 1, "worker": 12, "wall": 103.5,
    })


class TestFolding:
    def test_state_counts_eta_and_throughput(self):
        monitor = CampaignMonitor(clock=lambda: 110.0)
        _feed_basic(monitor)
        state = monitor.state()
        assert state["total"] == 4 and state["done"] == 2
        assert state["errors"] == 1
        assert not state["finished"]
        # 3s of wall over two exp1 n=8 cells' cost, times the cost of
        # the two n=16 cells left
        assert state["eta_s"] == 3.0 / (2 * cell_cost((1, 8, 0))) * (
            2 * cell_cost((1, 16, 0))
        )
        assert state["elapsed_s"] == 10.0
        assert state["throughput_cps"] == 2 / 10.0
        assert state["last_event_id"] == 5

    def test_grid_statuses(self):
        monitor = CampaignMonitor(clock=lambda: 110.0)
        _feed_basic(monitor)
        rows = {tuple(r["cell"]): r["status"] for r in monitor.state()["grid"]}
        assert rows == {
            (1, 8, 0): "ok",
            (1, 8, 1): "error",
            (1, 16, 0): "running",
            (1, 16, 1): "pending",
        }

    def test_component_shares_sum_to_one(self):
        monitor = CampaignMonitor()
        _feed_basic(monitor)
        components = monitor.state()["components"]
        assert components["tx"]["share"] == 0.7
        assert components["tw"]["share"] == 0.3

    def test_worker_liveness_from_cells_and_heartbeats(self):
        monitor = CampaignMonitor(clock=lambda: 110.0)
        _feed_basic(monitor)
        monitor.feed({
            "kind": "heartbeat", "cells": [[1, 16, 0]], "workers": [12],
            "wall": 108.0,
        })
        state = monitor.state()
        ages = {w["pid"]: w["age_s"] for w in state["workers"]}
        assert ages[11] == 110.0 - 102.5
        assert ages[12] == 110.0 - 108.0  # heartbeat refreshed it
        assert state["heartbeats"] == 1
        # heartbeats are ephemeral: no replay id, not retained
        assert monitor.last_event_id == 5
        assert all(
            e["kind"] != "heartbeat" for _id, e in monitor.events_after(0)
        )

    def test_resumed_retry_supersedes_earlier_cell(self):
        monitor = CampaignMonitor()
        _feed_basic(monitor)
        # the error cell re-runs in a resumed session and commits
        monitor.feed({
            "kind": "cell", "exp": 1, "n": 8, "rep": 1, "ok": True,
            "done": 2, "total": 4, "wall_s": 3.0, "wall": 200.0,
            "components": {"tx": 10.0},
        })
        state = monitor.state()
        assert state["done"] == 2  # still one cell, deduped by coords
        assert state["errors"] == 0
        # old wall/components backed out, new ones in
        assert state["wall_spent_s"] == 2.0 + 3.0
        assert state["components"]["tx"]["total"] == 70.0 + 10.0

    def test_campaign_end_clears_running(self):
        monitor = CampaignMonitor()
        _feed_basic(monitor)
        monitor.feed({
            "kind": "campaign-end", "completed": 3, "errors": 1,
            "wall_s": 9.0, "interrupted": True, "wall": 109.0,
        })
        state = monitor.state()
        assert state["finished"] and state["interrupted"]
        assert state["running"] == []

    def test_eta_matches_the_campaign_progress_line(self):
        """One ETA: the monitor and ``repro campaign``'s progress line
        give the same estimate for the same grid and the same walls."""
        grid = [(exp, n, rep) for exp in (1, 3) for n in (8, 256)
                for rep in range(2)]
        walls = {(1, 8, 0): 2.5, (3, 256, 1): 41.0, (1, 256, 0): 7.25}
        monitor = CampaignMonitor()
        monitor.feed({
            "kind": "campaign-start", "total": len(grid),
            "meta": {"experiments": [1, 3], "task_counts": [8, 256],
                     "reps": 2},
        })
        stream = io.StringIO()
        progress = _EtaProgress(grid, stream=stream)
        for done, (cell, wall) in enumerate(walls.items(), start=1):
            exp, n, rep = cell
            monitor.feed({"kind": "cell", "exp": exp, "n": n, "rep": rep,
                          "ok": True, "wall_s": wall})
            progress(CellProgress(done, len(grid), cell, wall_s=wall))
            eta = monitor.state()["eta_s"]
            assert eta > 0
            assert stream.getvalue().rstrip().endswith(f"ETA {eta:.0f}s")

    def test_metrics_snapshot_carries_live_gauges(self):
        monitor = CampaignMonitor(clock=lambda: 110.0)
        _feed_basic(monitor)
        snap = monitor.metrics_snapshot()
        assert snap["counters"]["monitor.cells"] == 2
        assert snap["counters"]["monitor.cell_errors"] == 1
        assert snap["gauges"]["monitor.cells_done"] == 2
        assert snap["gauges"]["monitor.cells_running"] == 1
        assert snap["gauges"]["monitor.component_share.tx"] == 0.7


class TestEventLog:
    def test_events_after_and_ids_are_one_based(self):
        monitor = CampaignMonitor()
        _feed_basic(monitor)
        tail = monitor.events_after(3)
        assert [event_id for event_id, _ in tail] == [4, 5]
        assert monitor.events_after(5) == []

    def test_wait_events_blocks_until_feed(self):
        monitor = CampaignMonitor()
        got = []

        def wait():
            got.extend(monitor.wait_events(0, timeout=5.0))

        t = threading.Thread(target=wait)
        t.start()
        time.sleep(0.05)
        monitor.feed({"kind": "campaign-start", "total": 1, "meta": {}})
        t.join(timeout=5.0)
        assert [event_id for event_id, _ in got] == [1]

    def test_wait_events_times_out_empty(self):
        assert CampaignMonitor().wait_events(0, timeout=0.05) == []


class TestBusAttachment:
    def test_attach_drains_bus_on_background_thread(self):
        bus = EventBus()
        monitor = CampaignMonitor()
        monitor.attach(bus)
        try:
            bus.publish({"kind": "campaign-start", "total": 2, "meta": {}})
            bus.publish({"kind": "cell", "exp": 1, "n": 8, "rep": 0,
                         "ok": True, "wall_s": 0.1})
            deadline = time.monotonic() + 5.0
            while monitor.last_event_id < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert monitor.state()["done"] == 1
        finally:
            monitor.stop()
            bus.close()

    def test_campaign_with_bus_ledger_feeds_monitor(self):
        """End to end in-process: runner -> ledger -> bus -> monitor."""
        bus = EventBus()
        monitor = CampaignMonitor()
        monitor.attach(bus)
        try:
            with RunLedger(bus=bus) as ledger:
                result = run_campaign(
                    experiments=(3,), task_counts=(8,), reps=2,
                    campaign_seed=21, ledger=ledger,
                )
            deadline = time.monotonic() + 10.0
            while not monitor.state()["finished"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            monitor.stop()
            bus.close()
        state = monitor.state()
        assert state["done"] == len(result.runs) == 2
        assert state["errors"] == 0
        # component shares flowed through the cell records
        assert state["components"]


class TestHostSample:
    def test_host_sample_shape(self):
        sample = host_sample()
        # Linux: both fields; elsewhere an empty dict is the contract.
        for key, value in sample.items():
            assert key in ("cpu_s", "rss_kb")
            assert value >= 0


class TestDashboard:
    def _state(self):
        monitor = CampaignMonitor(clock=lambda: 110.0)
        _feed_basic(monitor)
        return monitor.state()

    def test_render_plain_frame(self):
        frame = render_dashboard(self._state(), color=False)
        assert "2/4 cells" in frame
        assert "1 errors" in frame
        assert "exp1 n=8     #E" in frame
        assert "exp1 n=16    r." in frame
        assert "tx" in frame and "70.0%" in frame
        assert "\x1b[" not in frame

    def test_render_color_frame_paints_statuses(self):
        frame = render_dashboard(self._state(), color=True)
        assert "\x1b[32m#\x1b[0m" in frame  # green ok
        assert "\x1b[31m" in frame          # red error

    def test_finished_and_interrupted_phases(self):
        monitor = CampaignMonitor()
        _feed_basic(monitor)
        monitor.feed({"kind": "campaign-end", "completed": 3, "errors": 1,
                      "wall_s": 9.0, "interrupted": True})
        assert "interrupted (resumable)" in render_dashboard(
            monitor.state(), color=False
        )
        assert "waiting" in render_dashboard(
            CampaignMonitor().state(), color=False
        )

    def test_retry_glyph(self):
        monitor = CampaignMonitor()
        _feed_basic(monitor)
        monitor.feed({"kind": "attempt_started", "exp": 1, "n": 8,
                      "rep": 0, "attempt": 2})
        frame = render_dashboard(monitor.state(), color=False)
        assert "+E" in frame  # ok-after-retry glyph


class TestStateFromPath:
    def test_tail_watch_and_state_json_agree(self, tmp_path, capsys):
        """One real stored campaign, three read surfaces, one answer.

        The campaign streams its ledger into a store and, live, through
        a bus into a served monitor; ``repro tail`` and ``repro watch``
        re-fold the store afterwards.
        """
        path = str(tmp_path / "c.sqlite")
        bus = EventBus()
        monitor = CampaignMonitor()
        monitor.attach(bus)
        try:
            with CampaignStore(path) as store, MonitorServer(monitor) as srv:
                with RunLedger(store=store, bus=bus) as ledger:
                    run_campaign(
                        experiments=(1, 3), task_counts=(8,), reps=2,
                        campaign_seed=21, store=store, ledger=ledger,
                    )
                deadline = time.monotonic() + 10.0
                while not monitor.state()["finished"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                with urllib.request.urlopen(
                    srv.url + "/state.json", timeout=5
                ) as resp:
                    served = json.loads(resp.read().decode("utf-8"))
        finally:
            monitor.stop()
            bus.close()
        assert main(["tail", path]) == 0
        tail = capsys.readouterr().out.splitlines()
        assert main(["watch", path, "--once", "--no-color"]) == 0
        watch = capsys.readouterr().out.splitlines()
        assert (served["done"], served["total"], served["errors"]) == (4, 4, 0)
        assert served["finished"] and not served["interrupted"]
        served_head = render_dashboard(served, color=False).splitlines()
        # phase word, done/total and errors all live in the header
        assert tail[0] == watch[0] == served_head[0]
        assert tail[0].startswith("campaign finished  4/4 cells")
        assert tail[1] == watch[1] == served_head[1]

    def test_ndjson_and_store_agree(self, tmp_path):
        ndjson = str(tmp_path / "l.ndjson")
        sqlite_path = str(tmp_path / "l.sqlite")
        with CampaignStore(sqlite_path) as store:
            with RunLedger(ndjson, store=store) as ledger:
                ledger.campaign_start(total=1, meta={})
                ledger.cell(
                    CellProgress(1, 1, (1, 8, 0), wall_s=0.5, ttc=9.0),
                    run=_run(), worker=5,
                )
                ledger.campaign_end(completed=1, errors=0, wall_s=0.5)
        a = monitor_from_path(ndjson).state()
        b = monitor_from_path(sqlite_path).state()
        for key in ("total", "done", "errors", "finished", "grid"):
            assert a[key] == b[key], key
        assert a["finished"] and a["done"] == 1

    def test_follow_tolerates_torn_concurrent_writes(self, tmp_path):
        """Satellite: live follow across a writer appending torn lines.

        A writer thread appends whole records *byte by byte* (so the
        reader almost always lands mid-line) while the watcher re-folds
        the file. Progress must be monotone and crash-free throughout.
        """
        path = str(tmp_path / "live.ndjson")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"kind": "campaign-start", "total": 30, "meta": {}}
            ) + "\n")
        stop = threading.Event()

        def write_slowly():
            with open(path, "a", encoding="utf-8") as fh:
                for i in range(30):
                    line = json.dumps({
                        "kind": "cell", "exp": 1, "n": 8, "rep": i,
                        "ok": True, "wall_s": 0.01, "error": "é" * 3,
                    }) + "\n"
                    for ch in line:
                        fh.write(ch)
                        fh.flush()
                    if stop.is_set():
                        return

        writer = threading.Thread(target=write_slowly)
        writer.start()
        try:
            last_done = 0
            for _ in range(200):
                state = monitor_from_path(path).state()
                assert state["done"] >= last_done
                last_done = state["done"]
                if state["done"] >= 30:
                    break
                time.sleep(0.002)
        finally:
            stop.set()
            writer.join(timeout=10.0)
        assert monitor_from_path(path).state()["done"] == 30
