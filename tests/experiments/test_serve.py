"""The monitor's HTTP face: /metrics, /state.json, SSE replay + resume."""

import json
import os
import threading
import time
import urllib.request

import pytest

from repro.experiments import CampaignStore
from repro.experiments.monitor import CampaignMonitor, host_sample
from repro.experiments.serve import MonitorServer, parse_serve_spec


@pytest.fixture()
def plane(tmp_path):
    """A store with history, and a monitor on it behind a live
    ephemeral-port server. Yields the writable store (what the tests
    append to, as a campaign would) and the server."""
    with CampaignStore(str(tmp_path / "c.sqlite")) as store:
        store.append_ledger({
            "kind": "campaign-start", "total": 2, "wall": 100.0,
            "meta": {"experiments": [1], "task_counts": [8], "reps": 2},
        })
        store.append_ledger({
            "kind": "cell", "exp": 1, "n": 8, "rep": 0, "ok": True,
            "done": 1, "total": 2, "wall_s": 0.5, "ttc": 10.0,
            "wall": 101.0,
        })
        with CampaignMonitor(store.path) as monitor:
            server = MonitorServer(monitor).start()
            yield store, server
            server.stop()


def _get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), resp.read().decode("utf-8")


def _sse_frames(resp, want, timeout=5.0):
    """Read SSE frames: [(id, record), ...] until `want` data frames."""
    frames, event_id = [], None
    deadline = time.monotonic() + timeout
    while len(frames) < want and time.monotonic() < deadline:
        line = resp.readline().decode("utf-8")
        if line.startswith("id: "):
            event_id = int(line[4:].strip())
        elif line.startswith("data: "):
            frames.append((event_id, json.loads(line[6:])))
    return frames


class TestEndpoints:
    def test_ephemeral_port_and_index(self, plane):
        _store, server = plane
        assert server.port != 0
        status, _headers, body = _get(server.url + "/")
        assert status == 200
        assert "/metrics" in body and "/events" in body

    def test_state_json(self, plane):
        _store, server = plane
        status, headers, body = _get(server.url + "/state.json")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        state = json.loads(body)
        assert state["total"] == 2 and state["done"] == 1
        assert {tuple(r["cell"]): r["status"] for r in state["grid"]} == {
            (1, 8, 0): "ok", (1, 8, 1): "pending",
        }

    def test_metrics_prometheus_text(self, plane):
        _store, server = plane
        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "# TYPE repro_monitor_cells counter" in body
        assert "repro_monitor_cells_done 1" in body
        assert "repro_monitor_cells_total 2" in body

    def test_metrics_exports_every_monitor_metric(self, plane):
        """Every name ``/metrics`` has exported stays exported; counters
        come from the folded state, so ones never bumped read 0."""
        store, server = plane
        store.append_ledger({
            "kind": "cell", "exp": 1, "n": 8, "rep": 1, "ok": True,
            "done": 2, "total": 2, "wall_s": 0.4, "wall": 102.0,
            "components": {"tx": 3.0, "tw": 1.0},
        })
        _status, _headers, body = _get(server.url + "/metrics")
        counters = ("campaign_starts", "cells", "cell_errors", "retries",
                    "timeouts")
        gauges = ("cells_total", "cells_done", "cells_errored",
                  "cells_running", "finished", "eta_s", "throughput_cps",
                  "workers_seen", "wall_spent_s", "component_share_tx",
                  "component_share_tw")
        gauges += tuple(
            {"cpu_s": "host_cpu_s", "rss_kb": "host_rss_kb"}[key]
            for key in host_sample()
        )
        for name in counters:
            assert f"# TYPE repro_monitor_{name} counter" in body, name
        for name in gauges:
            assert f"# TYPE repro_monitor_{name} gauge" in body, name
        for name in ("cell_errors", "retries", "timeouts"):
            assert f"\nrepro_monitor_{name} 0\n" in body, name
        assert "\nrepro_monitor_cells 2\n" in body

    def test_unknown_path_404(self, plane):
        _store, server = plane
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/nope")
        assert err.value.code == 404

    def test_stopped_server_refuses_connections(self, plane):
        store, _server = plane
        with CampaignMonitor(store.path) as monitor:
            server = MonitorServer(monitor).start()
            try:
                status, _h, _b = _get(server.url + "/state.json")
                assert status == 200
            finally:
                server.stop()
        # stopped: a fresh connection must fail
        with pytest.raises(OSError):
            _get(server.url + "/state.json", timeout=0.5)


class TestSSE:
    def test_replay_then_follow(self, plane):
        store, server = plane
        resp = urllib.request.urlopen(server.url + "/events", timeout=5)
        assert resp.headers["Content-Type"] == "text/event-stream"
        # replay: the 2 logged rows, ids = seq 1..2
        replay = _sse_frames(resp, want=2)
        assert [i for i, _ in replay] == [1, 2]
        assert [r["kind"] for _, r in replay] == ["campaign-start", "cell"]
        # follow: a live row lands on the open stream
        store.append_ledger({
            "kind": "cell", "exp": 1, "n": 8, "rep": 1, "ok": True,
            "done": 2, "total": 2, "wall_s": 0.4, "wall": 102.0,
        })
        live = _sse_frames(resp, want=1)
        assert live and live[0][0] == 3
        assert live[0][1]["rep"] == 1
        resp.close()

    def test_last_event_id_resumes_mid_stream(self, plane):
        """Satellite: a reconnecting client resumes exactly after its id."""
        store, server = plane
        # first connection reads both events, then "disconnects" at id 2
        first = urllib.request.urlopen(server.url + "/events", timeout=5)
        assert len(_sse_frames(first, want=2)) == 2
        first.close()
        # rows arrive while the client is away
        store.append_ledger({"kind": "cell", "exp": 1, "n": 8, "rep": 1,
                             "ok": False, "wall_s": 0.1, "error": "boom"})
        store.append_ledger({"kind": "campaign-end", "completed": 1,
                             "errors": 1, "wall_s": 1.0})
        # reconnect with Last-Event-ID: 2 -> only ids 3 and 4
        req = urllib.request.Request(
            server.url + "/events", headers={"Last-Event-ID": "2"}
        )
        second = urllib.request.urlopen(req, timeout=5)
        frames = _sse_frames(second, want=2)
        assert [i for i, _ in frames] == [3, 4]
        assert [r["kind"] for _, r in frames] == ["cell", "campaign-end"]
        second.close()

    def test_stop_sends_every_row_written_before_it(self, plane):
        """A stream open when the server stops ends with the last row
        the campaign logged, then EOF — nothing is cut off."""
        store, server = plane
        resp = urllib.request.urlopen(server.url + "/events", timeout=5)
        assert len(_sse_frames(resp, want=2)) == 2
        store.append_ledger({"kind": "campaign-end", "completed": 2,
                             "errors": 0, "wall_s": 1.0})
        server.stop()
        rest = resp.read().decode("utf-8")
        resp.close()
        assert "id: 3\n" in rest and '"campaign-end"' in rest

    def test_after_query_param_resumes_too(self, plane):
        _store, server = plane
        resp = urllib.request.urlopen(
            server.url + "/events?after=1", timeout=5
        )
        frames = _sse_frames(resp, want=1)
        assert frames[0][0] == 2
        resp.close()

    def test_idle_stream_sends_keepalives(self, plane, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.serve.KEEPALIVE_S", 0.1
        )
        _store, server = plane
        resp = urllib.request.urlopen(
            server.url + "/events?after=2", timeout=5
        )
        deadline = time.monotonic() + 5.0
        line = ""
        while time.monotonic() < deadline:
            line = resp.readline().decode("utf-8")
            if line.startswith(":"):
                break
        assert line.startswith(": keepalive")
        resp.close()

    def test_many_concurrent_sse_clients(self, plane):
        store, server = plane
        results = []

        def client():
            resp = urllib.request.urlopen(server.url + "/events", timeout=5)
            results.append(_sse_frames(resp, want=3))
            resp.close()

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.2)
        store.append_ledger({"kind": "campaign-end", "completed": 2,
                             "errors": 0, "wall_s": 1.0})
        for t in threads:
            t.join(timeout=10.0)
        assert len(results) == 4
        for frames in results:
            assert [i for i, _ in frames] == [1, 2, 3]


class TestServeSpec:
    def test_accepted_forms(self):
        assert parse_serve_spec(":0") == ("127.0.0.1", 0)
        assert parse_serve_spec("8765") == ("127.0.0.1", 8765)
        assert parse_serve_spec("0.0.0.0:9000") == ("0.0.0.0", 9000)

    def test_rejected_forms(self):
        for bad in ("", "host:", "nope", ":-1", ":70000", "a:b:c"):
            with pytest.raises(ValueError):
                parse_serve_spec(bad)


class TestServeWithoutStore:
    def test_temp_store_serves_every_cell_and_is_removed(
        self, tmp_path, monkeypatch, capsys
    ):
        """``--serve`` without ``--store`` records into a temporary store
        file that the served monitor reads through its own connection;
        the file is gone once the campaign exits."""
        import tempfile

        import repro.cli as cli

        made, served = [], []
        real_mkdtemp = tempfile.mkdtemp

        def mkdtemp(**kwargs):
            made.append(real_mkdtemp(dir=str(tmp_path), **kwargs))
            return made[-1]

        class LastStateServer(MonitorServer):
            def stop(self):
                # the campaign has ended: read what the plane saw last
                served.append(json.loads(_get(self.url + "/state.json")[2]))
                super().stop()

        monkeypatch.setattr(cli.tempfile, "mkdtemp", mkdtemp)
        monkeypatch.setattr(cli.experiments, "MonitorServer", LastStateServer)
        assert cli.main([
            "campaign", "--experiments", "1", "3", "--sizes", "8",
            "--reps", "2", "--seed", "2016", "-q", "-j", "2",
            "-o", str(tmp_path / "c.json"), "--serve", "127.0.0.1:0",
        ]) == 0
        assert "serving on http://127.0.0.1:" in capsys.readouterr().err
        (state,) = served
        assert (state["done"], state["total"], state["errors"]) == (4, 4, 0)
        assert state["finished"]
        assert all(row["status"] == "ok" for row in state["grid"])
        assert len(made) == 1 and not os.path.exists(made[0])
        assert os.listdir(str(tmp_path)) == ["c.json"]
