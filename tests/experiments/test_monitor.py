"""CampaignMonitor folding of the store's log, the watch renderer, and
live re-reads of a store a campaign is writing."""

import contextlib
import io
import json
import threading
import urllib.request

import pytest

from repro.cli import _EtaProgress, main
from repro.experiments import (
    CampaignStore,
    CellProgress,
    MonitorServer,
    RunLedger,
    render_dashboard,
    run_campaign,
)
from repro.experiments.monitor import CampaignMonitor, host_sample
from repro.experiments.runner import cell_cost
from repro.experiments.sentinel import campaign_fingerprint

from .test_ledger import _run
from .test_runner import _fake_run


@pytest.fixture()
def log(tmp_path):
    """A writable campaign store; ``log.monitor()`` opens a monitor on it."""
    monitors = []
    with CampaignStore(str(tmp_path / "c.sqlite")) as store:

        def monitor(clock=None):
            kwargs = {} if clock is None else {"clock": clock}
            monitors.append(CampaignMonitor(store.path, **kwargs))
            return monitors[-1]

        store.monitor = monitor
        yield store
        for m in monitors:
            m.close()


def _feed_basic(store):
    """One started campaign: 1 ok cell, 1 error, 1 running, 1 pending."""
    store.append_ledger({
        "kind": "campaign-start", "total": 4, "wall": 100.0,
        "meta": {"experiments": [1], "task_counts": [8, 16], "reps": 2},
    })
    store.begin_attempt(1, 8, 0, worker=11, now=100.5)
    store.append_ledger({
        "kind": "cell", "exp": 1, "n": 8, "rep": 0, "ok": True,
        "done": 1, "total": 4, "wall_s": 2.0, "worker": 11, "ttc": 100.0,
        "wall": 102.5, "components": {"tx": 70.0, "tw": 30.0},
    })
    store.append_ledger({
        "kind": "cell", "exp": 1, "n": 8, "rep": 1, "ok": False,
        "done": 2, "total": 4, "wall_s": 1.0, "error": "boom",
        "wall": 103.0, "anomalies": ["error"],
    })
    store.begin_attempt(1, 16, 0, worker=12, now=103.5)


def _killed_then_resumed(store):
    """A session that committed reps 0 and 1 and was SIGKILLed with rep 2
    in flight, then a resumed session that reclaimed its lease."""
    store.append_ledger({
        "kind": "campaign-start", "total": 3, "wall": 100.0,
        "meta": {"experiments": [1], "task_counts": [8], "reps": 3},
    })
    for rep in (0, 1):
        store.append_ledger({
            "kind": "cell", "exp": 1, "n": 8, "rep": rep, "ok": True,
            "wall_s": 1.0, "wall": 101.0 + rep,
        })
    store.begin_attempt(1, 8, 2, now=103.0)


class TestFolding:
    def test_state_counts_eta_and_throughput(self, log):
        _feed_basic(log)
        state = log.monitor(clock=lambda: 110.0).state()
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

    def test_throughput_counts_only_this_session(self, log):
        """Regression: cells of an earlier session are not this session's
        throughput; a second start with no cell since reads 0."""
        _killed_then_resumed(log)
        log.append_ledger({
            "kind": "campaign-start", "total": 3, "wall": 1000.0,
            "meta": {"experiments": [1], "task_counts": [8], "reps": 3},
        })
        monitor = log.monitor(clock=lambda: 1001.0)
        state = monitor.state()
        assert state["done"] == 2 and state["elapsed_s"] == 1.0
        assert state["throughput_cps"] == 0.0
        log.append_ledger({
            "kind": "cell", "exp": 1, "n": 8, "rep": 2, "ok": True,
            "wall_s": 1.0, "wall": 1000.5,
        })
        assert monitor.state()["throughput_cps"] == 1.0

    def test_grid_statuses(self, log):
        _feed_basic(log)
        monitor = log.monitor(clock=lambda: 110.0)
        rows = {tuple(r["cell"]): r["status"] for r in monitor.state()["grid"]}
        assert rows == {
            (1, 8, 0): "ok",
            (1, 8, 1): "error",
            (1, 16, 0): "running",
            (1, 16, 1): "pending",
        }

    def test_reclaimed_lease_is_not_running(self, log):
        """Regression: a cell a killed session left in flight runs only
        while its lease is open; the resume's reclaim ends that."""
        _killed_then_resumed(log)
        monitor = log.monitor()
        status = {tuple(r["cell"]): r["status"] for r in monitor.state()["grid"]}
        assert status[(1, 8, 2)] == "running"  # stale, until a resume
        assert log.reclaim_stale_leases() == 1
        log.append_ledger({
            "kind": "campaign-start", "total": 3, "wall": 1000.0,
            "meta": {"experiments": [1], "task_counts": [8], "reps": 3},
        })
        state = monitor.state()
        status = {tuple(r["cell"]): r["status"] for r in state["grid"]}
        assert status == {(1, 8, 0): "ok", (1, 8, 1): "ok", (1, 8, 2): "pending"}
        assert state["running"] == []

    def test_component_shares_sum_to_one(self, log):
        _feed_basic(log)
        components = log.monitor().state()["components"]
        assert components["tx"]["share"] == 0.7
        assert components["tw"]["share"] == 0.3

    def test_worker_liveness_from_cells_and_heartbeats(self, log):
        _feed_basic(log)
        log.set_heartbeat(108.0)
        state = log.monitor(clock=lambda: 110.0).state()
        ages = {w["pid"]: w["age_s"] for w in state["workers"]}
        assert ages[11] == 110.0 - 102.5  # its cell record
        assert ages[12] == 110.0 - 103.5  # its attempt record
        assert state["running"] == [
            {"cell": [1, 16, 0], "attempt": 1, "worker": 12, "age_s": 2.0}
        ]

    def test_resumed_retry_supersedes_earlier_cell(self, log):
        _feed_basic(log)
        # the error cell re-runs in a resumed session and commits
        log.append_ledger({
            "kind": "cell", "exp": 1, "n": 8, "rep": 1, "ok": True,
            "done": 2, "total": 4, "wall_s": 3.0, "wall": 200.0,
            "components": {"tx": 10.0},
        })
        state = log.monitor().state()
        assert state["done"] == 2  # still one cell, deduped by coords
        assert state["errors"] == 0
        # old wall/components backed out, new ones in
        assert state["wall_spent_s"] == 2.0 + 3.0
        assert state["components"]["tx"]["total"] == 70.0 + 10.0

    def test_closed_lease_leaves_running(self, log):
        _feed_basic(log)
        log.finish_attempt(1, 16, 0, attempt=1, state="interrupted")
        log.append_ledger({
            "kind": "campaign-end", "completed": 3, "errors": 1,
            "wall_s": 9.0, "interrupted": True, "wall": 109.0,
        })
        state = log.monitor().state()
        assert state["finished"] and state["interrupted"]
        assert state["running"] == []

    def test_eta_matches_the_campaign_progress_line(self, log):
        """One ETA: the monitor and ``repro campaign``'s progress line
        give the same estimate for the same grid and the same walls."""
        grid = [(exp, n, rep) for exp in (1, 3) for n in (8, 256)
                for rep in range(2)]
        walls = {(1, 8, 0): 2.5, (3, 256, 1): 41.0, (1, 256, 0): 7.25}
        log.append_ledger({
            "kind": "campaign-start", "total": len(grid),
            "meta": {"experiments": [1, 3], "task_counts": [8, 256],
                     "reps": 2},
        })
        monitor = log.monitor()
        stream = io.StringIO()
        progress = _EtaProgress(grid, stream=stream)
        for done, (cell, wall) in enumerate(walls.items(), start=1):
            exp, n, rep = cell
            log.append_ledger({"kind": "cell", "exp": exp, "n": n,
                               "rep": rep, "ok": True, "wall_s": wall})
            progress(CellProgress(done, len(grid), cell, wall_s=wall))
            eta = monitor.state()["eta_s"]
            assert eta > 0
            assert stream.getvalue().rstrip().endswith(f"ETA {eta:.0f}s")

    def test_metrics_snapshot_carries_live_gauges(self, log):
        _feed_basic(log)
        snap = log.monitor(clock=lambda: 110.0).metrics_snapshot()
        assert snap["counters"]["monitor.cells"] == 2
        assert snap["counters"]["monitor.cell_errors"] == 1
        assert snap["gauges"]["monitor.cells_done"] == 2
        assert snap["gauges"]["monitor.cells_running"] == 1
        assert snap["gauges"]["monitor.component_share.tx"] == 0.7


class TestEventLog:
    def test_events_after_and_ids_are_one_based(self, log):
        _feed_basic(log)
        monitor = log.monitor()
        tail = monitor.events_after(3)
        assert [seq for seq, _ in tail] == [4, 5]
        assert monitor.events_after(5) == []

    def test_each_read_folds_only_new_rows(self, log, monkeypatch):
        _feed_basic(log)
        monitor = log.monitor()
        asked = []
        rows = monitor._store.ledger_rows
        monkeypatch.setattr(
            monitor._store, "ledger_rows",
            lambda after=0: asked.append(after) or rows(after),
        )
        assert monitor.state()["last_event_id"] == 5
        log.append_ledger({"kind": "cell_retried", "exp": 1, "n": 8,
                           "rep": 1, "attempt": 2})
        state = monitor.state()
        assert state["last_event_id"] == 6 and state["retries"] == 1
        assert monitor.state()["retries"] == 1  # not folded twice
        assert asked == [0, 5, 6]


class TestLiveFollow:
    def test_campaign_log_feeds_monitor(self, log):
        """End to end in-process: runner -> ledger -> store -> monitor,
        one monitor read after every cell."""
        monitor = log.monitor()
        seen = []

        def progress(p):
            seen.append(monitor.state()["done"])

        with contextlib.closing(RunLedger(log)) as ledger:
            result = run_campaign(
                experiments=(3,), task_counts=(8,), reps=2,
                campaign_seed=21, ledger=ledger, store=log,
                on_progress=progress,
            )
        assert seen == [1, 2]
        state = monitor.state()
        assert state["finished"]
        assert state["done"] == len(result.runs) == 2
        assert state["errors"] == 0 and state["running"] == []
        # component shares flowed through the cell records
        assert state["components"]

    def test_shares_are_the_fingerprint_shares(self, log):
        """``watch``, ``/state.json`` and ``/metrics`` show the shares
        ``analyze`` and ``report`` show: the mean over runs of each
        component's share of the run's TTC. Summing component seconds
        over summed TTC instead weights long runs, and on this campaign
        reads Tw 63.5% where the fingerprint reads 39.7%."""
        with contextlib.closing(RunLedger(log)) as ledger:
            result = run_campaign(
                experiments=(1, 3), task_counts=(8, 64), reps=2,
                campaign_seed=2016, ledger=ledger, store=log,
            )
        runs = sorted(result.runs,
                      key=lambda r: (r.exp_id, r.n_tasks, r.rep))
        state = log.monitor().state()
        got = {name: c["share"] for name, c in state["components"].items()}
        # the mean of per-run shares, summed here in another order, so
        # equal to a few ulps
        for name, share in got.items():
            expected = sum(
                dict(r.attribution).get(name, 0.0) / r.ttc for r in runs
            ) / len(runs)
            assert share == pytest.approx(expected, rel=1e-12, abs=1e-15)
        # the fingerprint's cell shares, weighted by the cell's runs;
        # equal up to the order the floats were summed in
        cells = campaign_fingerprint(result)["cells"].values()
        total = sum(cell["n"] for cell in cells)
        for name, share in got.items():
            weighted = sum(cell["n"] * cell["shares"][name]
                           for cell in cells) / total
            assert share == pytest.approx(weighted, rel=1e-12, abs=1e-15)
        assert got["tw"] == pytest.approx(0.397, abs=5e-4)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_read_sees_a_committed_run_as_pending(
        self, log, monkeypatch, jobs,
    ):
        """A second read-only handle and a monitor read the store at the
        commit/log boundary of every cell — as each commit ends, and
        as the cell record is written: every run stored reads ``ok``."""
        reader = CampaignStore(log.path, readonly=True)
        monitor = log.monitor()
        reads, pending = [], []

        def read():
            status = {tuple(r["cell"]): r["status"] for r in monitor.state()["grid"]}
            committed = reader.committed_cells()
            reads.append(len(committed))
            pending.extend(c for c in committed if status.get(c) != "ok")

        transaction, cell = CampaignStore.transaction, RunLedger.cell

        @contextlib.contextmanager
        def read_after_commit(store):
            with transaction(store):
                yield
            read()

        def read_before_cell(ledger, *args, **kwargs):
            read()
            return cell(ledger, *args, **kwargs)

        monkeypatch.setattr(CampaignStore, "transaction", read_after_commit)
        monkeypatch.setattr(RunLedger, "cell", read_before_cell)
        try:
            result = run_campaign(
                experiments=(1,), task_counts=(8, 16), reps=2, jobs=jobs,
                run_fn=_fake_run, store=log, ledger=RunLedger(log),
            )
        finally:
            reader.close()
        assert len(result.runs) == 4
        assert len(reads) == 8 and max(reads) == 4
        assert pending == []

    def test_follow_sees_concurrent_writes(self, log):
        """A writer thread appends to the log through its own connection
        while one monitor follows it: progress is monotone and ends
        complete."""
        log.append_ledger({"kind": "campaign-start", "total": 30,
                           "meta": {}})
        monitor = log.monitor()

        def write():
            with CampaignStore(log.path) as writer:
                for i in range(30):
                    writer.append_ledger({
                        "kind": "cell", "exp": 1, "n": 8, "rep": i,
                        "ok": True, "wall_s": 0.01, "error": "é" * 3,
                    })

        writer = threading.Thread(target=write)
        writer.start()
        try:
            last_done = 0
            while writer.is_alive():
                done = monitor.state()["done"]
                assert done >= last_done
                last_done = done
        finally:
            writer.join(timeout=10.0)
        assert monitor.state()["done"] == 30


class TestHostSample:
    def test_host_sample_shape(self):
        sample = host_sample()
        # Linux: both fields; elsewhere an empty dict is the contract.
        for key, value in sample.items():
            assert key in ("cpu_s", "rss_kb")
            assert value >= 0


class TestDashboard:
    def _state(self, log):
        _feed_basic(log)
        return log.monitor(clock=lambda: 110.0).state()

    def test_render_plain_frame(self, log):
        frame = render_dashboard(self._state(log), color=False)
        assert "2/4 cells" in frame
        assert "1 errors" in frame
        assert "exp1 n=8     #E" in frame
        assert "exp1 n=16    r." in frame
        assert "tx" in frame and "70.0%" in frame
        assert "\x1b[" not in frame

    def test_render_color_frame_paints_statuses(self, log):
        frame = render_dashboard(self._state(log), color=True)
        assert "\x1b[32m#\x1b[0m" in frame  # green ok
        assert "\x1b[31m" in frame          # red error

    def test_finished_and_interrupted_phases(self, log, tmp_path):
        _feed_basic(log)
        log.append_ledger({"kind": "campaign-end", "completed": 3,
                           "errors": 1, "wall_s": 9.0, "interrupted": True})
        assert "interrupted (resumable)" in render_dashboard(
            log.monitor().state(), color=False
        )
        with CampaignStore(str(tmp_path / "empty.sqlite")) as empty:
            with CampaignMonitor(empty.path) as monitor:
                assert "waiting" in render_dashboard(
                    monitor.state(), color=False
                )

    def test_retry_glyph(self, log):
        _feed_basic(log)
        log.append_ledger({"kind": "attempt_started", "exp": 1, "n": 8,
                           "rep": 0, "attempt": 2})
        frame = render_dashboard(log.monitor().state(), color=False)
        assert "+E" in frame  # ok-after-retry glyph


class TestStateFromPath:
    def test_tail_watch_and_state_json_agree(self, tmp_path, capsys):
        """One real stored campaign, three read surfaces, one answer.

        The campaign logs into a store that a served monitor follows;
        ``repro tail`` and ``repro watch`` fold the same store afterwards.
        """
        path = str(tmp_path / "c.sqlite")
        with CampaignStore(path) as store:
            with CampaignMonitor(path) as monitor:
                srv = MonitorServer(monitor).start()
                try:
                    with contextlib.closing(RunLedger(store)) as ledger:
                        run_campaign(
                            experiments=(1, 3), task_counts=(8,), reps=2,
                            campaign_seed=21, store=store, ledger=ledger,
                        )
                    with urllib.request.urlopen(
                        srv.url + "/state.json", timeout=5
                    ) as resp:
                        served = json.loads(resp.read().decode("utf-8"))
                finally:
                    srv.stop()
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

    def test_ndjson_and_store_agree(self, tmp_path, capsys):
        """``repro tail --json`` prints the ``--ledger`` export byte for
        byte: one log, one NDJSON writer."""
        ndjson = tmp_path / "l.ndjson"
        sqlite_path = str(tmp_path / "l.sqlite")
        with CampaignStore(sqlite_path) as store:
            with contextlib.closing(RunLedger(store, path=str(ndjson))) as ledger:
                ledger.campaign_start(total=1, meta={})
                ledger.cell(
                    CellProgress(1, 1, (1, 8, 0), wall_s=0.5, ttc=9.0),
                    run=_run(), worker=5,
                )
                ledger.campaign_end(completed=1, errors=0, wall_s=0.5)
        assert main(["tail", sqlite_path, "--json"]) == 0
        assert capsys.readouterr().out == ndjson.read_text(encoding="utf-8")
        with CampaignMonitor(sqlite_path) as monitor:
            state = monitor.state()
        assert state["finished"] and state["done"] == 1
