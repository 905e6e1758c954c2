"""Chaos for the observability plane: watch a SIGKILL'd campaign live.

A ``-j`` campaign served live, SIGKILL'd in flight, and resumed must
leave observers and the store in agreement — the watch fold over the
store equals what ``repro analyze`` (the fingerprint oracle) sees, and
the digests match an uninterrupted run's. An SSE client that reconnects
with the last id it saw gets exactly the store's log rows past that id,
within one session and across a ``--resume``. The plane observes
everything and perturbs nothing, even under chaos.
"""

import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import time
import urllib.request

from repro.cli import main
from repro.experiments import (
    CampaignMonitor,
    CampaignStore,
    campaign_fingerprint_from_store,
)

from .test_resume import _digest, _poll_runs

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


#: the CI campaign's grid, long enough at -j 2 to reconnect mid-run.
CI_GRID = ("--experiments", "1", "3", "--sizes", "8", "16", "--reps", "2")


def _spawn_served_campaign(store_path, seed=5, *extra,
                           grid=("--experiments", "1", "--sizes", "8",
                                 "--reps", "8")):
    """Start a `-j 2 --serve :0` campaign; returns (proc, monitor_url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", *grid,
         "--seed", str(seed), "-q", "-j", "2",
         "--store", store_path, "--serve", "127.0.0.1:0", *extra],
        cwd=REPO, env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    # the bound ephemeral URL is announced on stderr before the run
    deadline = time.monotonic() + 30.0
    line = ""
    while time.monotonic() < deadline:
        line = proc.stderr.readline().decode("utf-8", "replace")
        match = re.search(r"serving on (http://[\d.]+:\d+)", line)
        if match:
            return proc, match.group(1)
        if proc.poll() is not None:
            break
    raise AssertionError(f"campaign never announced its monitor: {line!r}")


class TestWatchThroughSigkill:
    def test_served_campaign_survives_sigkill_and_matches_analyze(
        self, tmp_path
    ):
        # the uninterrupted oracle (no server: also proves --serve is
        # observation-only when the digests come out identical).
        clean = str(tmp_path / "clean.sqlite")
        assert main([
            "campaign", "--experiments", "1", "--sizes", "8",
            "--reps", "8", "--seed", "5", "-q", "-j", "2",
            "--store", clean,
        ]) == 0

        chaos = str(tmp_path / "chaos.sqlite")
        proc, url = _spawn_served_campaign(chaos)
        try:
            # Freeze one of the two workers as soon as it starts: the
            # cell it holds cannot finish, so while the other worker
            # commits runs the campaign cannot end, and its server is
            # still listening through the mid-run checks below.
            _signal_all(_pool_workers(proc, 1)[:1], signal.SIGSTOP)
            seen = _poll_runs(chaos, at_least=2, proc=proc)
            if seen >= 0:
                # live endpoints answer mid-run with coherent state
                with urllib.request.urlopen(
                    url + "/state.json", timeout=10
                ) as r:
                    live = json.loads(r.read())
                assert live["total"] == 8
                assert 0 <= live["done"] <= 8
                with urllib.request.urlopen(url + "/metrics", timeout=10) as r:
                    metrics = r.read().decode()
                assert "repro_monitor_cells_total 8" in metrics
                # a live file watcher agrees with the store, mid-flight
                with CampaignMonitor(chaos) as watcher:
                    watched = watcher.state()
                assert watched["total"] == 8
                # SIGKILL the process group: parent, workers, server
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            proc.wait(timeout=60)
        finally:
            proc.stderr.close()
            if proc.poll() is None:  # pragma: no cover - cleanup path
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
                proc.wait(timeout=30)

        if seen >= 0:
            # the dead monitor took nothing with it: the store folds
            # cleanly and shows the interruption
            with CampaignMonitor(chaos) as watcher:
                mid = watcher.state()
            assert not mid["finished"]
            assert mid["done"] < 8

        # resume serverless; the final state must equal the oracle's
        assert main([
            "campaign", "--experiments", "1", "--sizes", "8",
            "--reps", "8", "--seed", "5", "-q", "-j", "2",
            "--store", chaos, "--resume",
        ]) == 0
        with CampaignMonitor(chaos) as watcher:
            final = watcher.state()
        assert final["done"] == 8 and final["errors"] == 0
        # watch-fold and analyze-oracle agree on the same store
        with CampaignStore(chaos, readonly=True) as store:
            fingerprint = campaign_fingerprint_from_store(store)
            assert store.run_count() == final["done"]
        assert fingerprint["digest"] == _digest(clean)


def _poll_log(path, at_least, proc):
    """Wait until the live store's log holds >= ``at_least`` rows."""
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline and proc.poll() is None:
        try:
            if len(_log_rows(path)) >= at_least:
                return
        except sqlite3.Error:
            pass  # store not created / schema not there yet
        time.sleep(0.002)
    raise AssertionError(f"the log never reached {at_least} rows")


def _pool_workers(proc, count):
    """Pids of the ``count`` pool workers in ``proc``'s session (read
    from ``/proc``)."""
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline and proc.poll() is None:
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit() or int(entry) == proc.pid:
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue  # exited while listed
            if int(fields[3]) == proc.pid:  # the session id
                pids.append(int(entry))
        if len(pids) >= count:
            return pids
        time.sleep(0.002)
    raise AssertionError(f"campaign never started {count} pool workers")


def _signal_all(pids, signum):
    for pid in pids:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def _sse(url, last_id=None):
    headers = {} if last_id is None else {"Last-Event-ID": str(last_id)}
    request = urllib.request.Request(url + "/events", headers=headers)
    return urllib.request.urlopen(request, timeout=60)


def _frames(resp, want=None):
    """``(id, record)`` SSE frames: ``want`` of them, or all until EOF."""
    frames, event_id = [], None
    with resp:
        for raw in resp:
            line = raw.decode("utf-8")
            if line.startswith("id: "):
                event_id = int(line[4:])
            elif line.startswith("data: "):
                frames.append((event_id, json.loads(line[6:])))
                if want is not None and len(frames) == want:
                    break
    return frames


def _log_rows(path, after=0):
    with CampaignStore(path, readonly=True) as store:
        return store.ledger_rows(after)


def _end(proc, kill=False):
    try:
        if kill and proc.poll() is None:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        return proc.wait(timeout=120)
    finally:
        proc.stderr.close()
        if proc.poll() is None:  # pragma: no cover - cleanup path
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            proc.wait(timeout=30)


class TestSseResume:
    def test_last_event_id_mid_campaign(self, tmp_path):
        """Reconnect mid-run with the last id seen: the new stream is the
        store's rows past it, in order, no gap, no duplicate, up to the
        end of the campaign."""
        path = str(tmp_path / "c.sqlite")
        proc, url = _spawn_served_campaign(path, 2016, grid=CI_GRID)
        workers = []
        try:
            # Freeze the -j 2 pool once the log holds the 4 rows read
            # below. A cell not dispatched before the freeze needs a
            # worker to run, so with fewer than all 8 dispatched the
            # campaign cannot end until SIGCONT, and its server is
            # still listening when the client reconnects.
            _poll_log(path, 4, proc)
            workers = _pool_workers(proc, 2)
            _signal_all(workers, signal.SIGSTOP)
            with CampaignStore(path, readonly=True) as store:
                assert len(store.attempt_rows()) < 8
            first = _frames(_sse(url), want=4)
            last_id = first[-1][0]
            resumed = _sse(url, last_id)
            _signal_all(workers, signal.SIGCONT)
            rest = _frames(resumed)
        finally:
            _signal_all(workers, signal.SIGCONT)
            assert _end(proc) == 0
        assert first == _log_rows(path)[:4]
        assert rest == _log_rows(path, last_id)
        assert rest[-1][1]["kind"] == "campaign-end"
        assert [seq for seq, _ in first + rest] == list(
            range(1, len(first) + len(rest) + 1)
        )

    def test_last_event_id_across_a_resume(self, tmp_path):
        """An id taken before a SIGKILL resumes on the resumed session's
        server: ``seq`` continues across sessions, so the stream is the
        rest of the first session's rows, then the second's."""
        path = str(tmp_path / "c.sqlite")
        proc, url = _spawn_served_campaign(path, 2016, grid=CI_GRID)
        try:
            first = _frames(_sse(url), want=4)
        finally:
            _end(proc, kill=True)
        last_id = first[-1][0]
        proc, url = _spawn_served_campaign(
            path, 2016, "--resume", grid=CI_GRID
        )
        try:
            rest = _frames(_sse(url, last_id))
        finally:
            assert _end(proc) == 0
        assert first == _log_rows(path)[:4]
        assert rest == _log_rows(path, last_id)
        kinds = [record["kind"] for _seq, record in rest]
        assert "campaign_resumed" in kinds and kinds[-1] == "campaign-end"


class TestServedFinalState:
    def test_server_outlives_the_last_cell(self, tmp_path):
        """A client that asks only after the last cell committed still
        reads the finished campaign: the server stays up a while after
        the grid ends instead of closing its port with the last cell."""
        path = str(tmp_path / "c.sqlite")
        proc, url = _spawn_served_campaign(
            path, 2016, grid=("--experiments", "1", "--sizes", "8",
                              "--reps", "1")
        )
        try:
            line = proc.stderr.readline().decode("utf-8", "replace")
            assert line.startswith("campaign done"), line
            with urllib.request.urlopen(url + "/state.json",
                                        timeout=60) as resp:
                state = json.loads(resp.read())
            rest = _frames(_sse(url))
        finally:
            assert _end(proc) == 0
        assert state["finished"]
        assert rest == _log_rows(path)
        assert rest[-1][1]["kind"] == "campaign-end"
