"""Chaos for the observability plane: watch a SIGKILL'd campaign live.

The satellite contract: a ``-j`` campaign served live, SIGKILL'd in
flight, and resumed must leave observers and the store in agreement —
the watch fold over the store equals what ``repro analyze`` (the
fingerprint oracle) sees, and the digests match an uninterrupted run's.
The plane observes everything and perturbs nothing, even under chaos.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

from repro.cli import main
from repro.experiments import (
    CampaignStore,
    campaign_fingerprint_from_store,
    monitor_from_path,
)

from .test_resume import _digest, _poll_runs

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _spawn_served_campaign(store_path, seed=5):
    """Start a `-j 2 --serve :0` campaign; returns (proc, monitor_url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign",
         "--experiments", "1", "--sizes", "8", "--reps", "8",
         "--seed", str(seed), "-q", "-j", "2",
         "--store", store_path, "--serve", "127.0.0.1:0"],
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
                watched = monitor_from_path(chaos).state()
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
            mid = monitor_from_path(chaos).state()
            assert not mid["finished"]
            assert mid["done"] < 8

        # resume serverless; the final state must equal the oracle's
        assert main([
            "campaign", "--experiments", "1", "--sizes", "8",
            "--reps", "8", "--seed", "5", "-q", "-j", "2",
            "--store", chaos, "--resume",
        ]) == 0
        final = monitor_from_path(chaos).state()
        assert final["done"] == 8 and final["errors"] == 0
        # watch-fold and analyze-oracle agree on the same store
        with CampaignStore(chaos, readonly=True) as store:
            fingerprint = campaign_fingerprint_from_store(store)
            assert store.run_count() == final["done"]
        assert fingerprint["digest"] == _digest(clean)
