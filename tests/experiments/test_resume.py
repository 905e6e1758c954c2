"""Chaos-resume suite: kill the campaign, resume it, prove nothing changed.

The correctness oracle throughout: a campaign that is killed (SIGKILL,
SIGINT drain, hung worker, quarantined error) and then resumed must
produce a store whose ``campaign_fingerprint_from_store`` digest is
byte-identical to the store of an uninterrupted run. Per-cell seeding
(``SeedSequence`` over the grid coordinates) is what makes that
provable; these tests are what keep it true.
"""

import functools
import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from collections import Counter

import pytest

from repro.cli import main
from repro.experiments import (
    EXIT_RESUMABLE,
    CampaignInterrupted,
    CampaignMonitor,
    CampaignStore,
    IncompatibleResumeError,
    ResiliencePolicy,
    RunLedger,
    StoreInUseError,
    campaign_fingerprint_from_store,
    campaign_meta,
    config_digest,
    meta_diff,
    prepare_resume,
    render_tail,
    run_campaign,
    store_summary,
)
from repro.experiments.campaign import CellError
from repro.experiments.runner import RunnerStats

# reuse the module-level worker hooks the runner tests ship (workers
# unpickle them by reference, so they must live at module scope).
from tests.experiments.test_runner import (
    _error_run,
    _fake_run,
    _stored_outcome,
)

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _hang_run(cell, campaign_seed, resource_pool, collect_digests):
    if cell == (1, 16, 1):
        time.sleep(120)  # simulate a wedged worker; the parent kills us
    return _fake_run(cell, campaign_seed, resource_pool, collect_digests)


def _hang_behind_fast_run(marks, cell, campaign_seed, resource_pool,
                          collect_digests):
    """Rep 1 hangs and keeps writing how long it has run into ``marks``;
    every other rep takes 50 ms."""
    if cell[2] != 1:
        time.sleep(0.05)
        return _fake_run(cell, campaign_seed, resource_pool, collect_digests)
    t0 = time.monotonic()
    path = os.path.join(marks, "ran_s")
    while True:
        with open(path + ".tmp", "w") as f:
            f.write(repr(time.monotonic() - t0))
        os.replace(path + ".tmp", path)
        time.sleep(0.01)


def _session_procs(sid):
    """Pids of the live (not zombie) processes in session ``sid``."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                state, _ppid, _pgrp, session = (
                    f.read().rsplit(")", 1)[1].split()[:4]
                )
        except (OSError, ValueError):
            continue  # exited while we looked
        if int(session) == sid and state != "Z":
            pids.append(int(name))
    return pids


def _signal_twice_run(cell, campaign_seed, resource_pool, collect_digests):
    # a drain, then a hard cancel, while the cell is still running; the
    # sleep stands for a long cell the second signal must preempt
    os.kill(os.getpid(), signal.SIGINT)
    os.kill(os.getpid(), signal.SIGINT)
    time.sleep(60)
    return _fake_run(cell, campaign_seed, resource_pool, collect_digests)


GRID_KW = dict(
    experiments=(1,), task_counts=(8, 16), reps=2, campaign_seed=0,
)


def _digest(path: str) -> str:
    with CampaignStore(path, readonly=True) as store:
        return campaign_fingerprint_from_store(store)["digest"]


# -- store attempt records -----------------------------------------------------


class TestAttemptRecords:
    def test_begin_finish_roundtrip(self, tmp_path):
        with CampaignStore(str(tmp_path / "a.sqlite")) as store:
            att = store.begin_attempt(1, 8, 0, worker=123)
            assert att == 1
            rows = store.attempt_rows(1, 8, 0)
            assert rows[0]["state"] == "leased"
            assert rows[0]["worker"] == 123
            store.finish_attempt(1, 8, 0, attempt=att, state="committed")
            rows = store.attempt_rows(1, 8, 0)
            assert rows[0]["state"] == "committed"
            assert rows[0]["wall_end"] is not None

    def test_attempt_numbers_are_durable_per_cell(self, tmp_path):
        path = str(tmp_path / "a.sqlite")
        with CampaignStore(path) as store:
            assert store.begin_attempt(1, 8, 0) == 1
            store.finish_attempt(1, 8, 0, attempt=1, state="failed",
                                 error="boom")
        with CampaignStore(path) as store:  # a later session continues
            assert store.begin_attempt(1, 8, 0) == 2
            assert store.begin_attempt(2, 8, 0) == 1

    def test_reclaim_stale_leases(self, tmp_path):
        with CampaignStore(str(tmp_path / "a.sqlite")) as store:
            store.begin_attempt(1, 8, 0)
            store.begin_attempt(1, 16, 0)
            att = store.begin_attempt(1, 16, 1)
            store.finish_attempt(1, 16, 1, attempt=att, state="committed")
            assert store.lease_count() == 2
            assert store.reclaim_stale_leases() == 2
            assert store.lease_count() == 0
            states = {r["state"] for r in store.attempt_rows()}
            assert states == {"reclaimed", "committed"}

    def test_summary_surfaces_history(self, tmp_path):
        with CampaignStore(str(tmp_path / "a.sqlite")) as store:
            store.begin_attempt(1, 8, 0)
            store.set_interrupted(True)
            summary = store_summary(store)
            assert summary["attempts"] == 1
            assert summary["stale_leases"] == 1
            assert summary["interrupted"] is True


# -- resume planning -----------------------------------------------------------


class TestPrepareResume:
    GRID = [(1, 8, 0), (1, 8, 1), (1, 16, 0), (1, 16, 1)]

    def _meta(self, seed=0):
        return campaign_meta(
            experiments=(1,), task_counts=(8, 16), reps=2,
            campaign_seed=seed,
        )

    def test_incompatible_config_refused_with_diff(self, tmp_path):
        with CampaignStore(str(tmp_path / "a.sqlite")) as store:
            store.set_campaign_meta(self._meta(seed=7))
            with pytest.raises(IncompatibleResumeError) as err:
                prepare_resume(store, self._meta(seed=8), self.GRID)
            assert "campaign_seed" in str(err.value)
            assert "refusing to resume" in str(err.value)
            assert err.value.diff == [("campaign_seed", 7, 8)]

    def test_meta_diff_and_config_digest(self):
        a, b = self._meta(seed=7), self._meta(seed=8)
        assert meta_diff(a, dict(a)) == []
        assert meta_diff(a, b) == [("campaign_seed", 7, 8)]
        assert config_digest(a) != config_digest(b)
        assert config_digest(a) == config_digest(dict(a))

    def test_committed_cells_skipped_in_grid_order(self, tmp_path):
        with CampaignStore(str(tmp_path / "a.sqlite")) as store:
            store.set_campaign_meta(self._meta())
            store.put_run(_fake_run((1, 8, 1), 0, None, False))
            plan = prepare_resume(store, self._meta(), self.GRID)
            assert plan.committed == {(1, 8, 1)}
            assert plan.remaining == [(1, 8, 0), (1, 16, 0), (1, 16, 1)]

    def test_empty_store_resumes_into_full_run(self, tmp_path):
        with CampaignStore(str(tmp_path / "a.sqlite")) as store:
            plan = prepare_resume(store, self._meta(), self.GRID)
            assert plan.remaining == self.GRID


# -- serial interrupt atomicity ------------------------------------------------


class TestSerialInterrupt:
    def test_interrupt_commits_prefix_and_resume_matches_clean(self, tmp_path):
        kwargs = dict(
            experiments=(1,), task_counts=(8,), reps=3, campaign_seed=7,
        )
        clean = str(tmp_path / "clean.sqlite")
        with CampaignStore(clean) as store:
            run_campaign(store=store, **kwargs)

        chaos = str(tmp_path / "chaos.sqlite")

        def boom(progress):
            if progress.done >= 1:
                raise KeyboardInterrupt

        store = CampaignStore(chaos)
        with pytest.raises(CampaignInterrupted) as err:
            run_campaign(store=store, on_progress=boom, **kwargs)
        # cell-atomic: the poisoned callback fired after the commit, so
        # exactly the completed prefix is on disk — whole cells only.
        assert err.value.result is not None
        assert store.run_count() == len(err.value.result.runs) == 1
        assert store.interrupted() is True
        store.close()

        with CampaignStore(chaos) as store:
            result = run_campaign(store=store, resume=True, **kwargs)
        assert len(result.runs) == 3
        assert not result.errors
        assert _digest(chaos) == _digest(clean)
        with CampaignStore(chaos, readonly=True) as store:
            assert store.interrupted() is False


class TestHardCancel:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_second_signal_preempts_an_in_process_cell(self, tmp_path, jobs):
        """One cell runs in-process at any ``jobs``; a second signal must
        stop it rather than wait for it to finish."""
        w0 = time.monotonic()
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    experiments=(1,), task_counts=(8,), reps=1, jobs=jobs,
                    run_fn=_signal_twice_run,
                    store=store,
                )
            assert time.monotonic() - w0 < 30
            assert [r["state"] for r in store.attempt_rows()] == [
                "interrupted"
            ]
            assert store.interrupted() is True
            assert store.run_count() == 0


# -- resume (in-process paths) -------------------------------------------------


class TestParallelResume:
    def test_resume_skips_committed_and_matches_clean(self, tmp_path):
        clean = str(tmp_path / "clean.sqlite")
        with CampaignStore(clean) as store:
            run_campaign(
                jobs=1, run_fn=_fake_run,
                store=store, **GRID_KW,
            )

        partial = str(tmp_path / "partial.sqlite")
        with CampaignStore(partial) as store:
            store.set_campaign_meta(campaign_meta(**GRID_KW))
            store.put_run(_fake_run((1, 8, 0), 0, None, False))
            store.begin_attempt(1, 16, 0)  # a lease that died in flight
            store.set_interrupted(True)
        with CampaignStore(partial) as store:
            stats = RunnerStats()
            result = run_campaign(
                jobs=1, run_fn=_fake_run,
                store=store, resume=True, stats=stats, **GRID_KW,
            )
            assert store.lease_count() == 0  # stale lease reclaimed
            assert store.interrupted() is False
        assert len(result.runs) == 4  # committed cells fold back in
        assert stats.completed == 3  # only the remainder was executed
        assert _digest(partial) == _digest(clean)

    @pytest.mark.parametrize("used", ["meta", "error", "run"])
    def test_fresh_campaign_refuses_used_store(self, tmp_path, used):
        with CampaignStore(str(tmp_path / "a.sqlite")) as store:
            if used == "meta":
                store.set_campaign_meta(campaign_meta(**GRID_KW))
            elif used == "error":
                store.put_error(CellError(1, 8, 0, "stale"))
            else:
                store.put_run(_fake_run((1, 8, 0), 0, None, False))
            with pytest.raises(StoreInUseError, match="pass --resume"):
                run_campaign(
                    jobs=1, run_fn=_fake_run,
                    store=store, **GRID_KW,
                )
            assert store.attempt_count() == 0  # nothing was dispatched

    def test_resume_requires_store(self):
        with pytest.raises(ValueError, match="requires a store"):
            run_campaign(jobs=1, resume=True, **GRID_KW)

    def test_retry_errors_roundtrip(self, tmp_path):
        clean = str(tmp_path / "clean.sqlite")
        with CampaignStore(clean) as store:
            run_campaign(
                jobs=1, run_fn=_fake_run,
                store=store, **GRID_KW,
            )

        chaos = str(tmp_path / "chaos.sqlite")
        with CampaignStore(chaos) as store:
            result = run_campaign(
                jobs=1, run_fn=_error_run,
                store=store, **GRID_KW,
            )
            assert len(result.errors) == 2
        # plain resume skips quarantined cells: nothing to do, errors stay
        with CampaignStore(chaos) as store:
            result = run_campaign(
                jobs=1, run_fn=_fake_run,
                store=store, resume=True, **GRID_KW,
            )
            assert len(result.errors) == 2
        # --retry-errors re-attempts them; with the failure gone the
        # store converges to the clean run, digest-identical.
        with CampaignStore(chaos) as store:
            result = run_campaign(
                jobs=1, run_fn=_fake_run,
                store=store, resume=True,
                resilience=ResiliencePolicy(retry_errors=True),
                **GRID_KW,
            )
            assert not result.errors
            assert store.error_count() == 0
        assert _digest(chaos) == _digest(clean)


# -- hung-worker supervision ---------------------------------------------------


class TestHungWorker:
    def test_timeout_kill_retry_quarantine(self, tmp_path):
        policy = ResiliencePolicy(
            cell_timeout_s=0.5, max_attempts=2,
            backoff_base_s=0.01, poll_s=0.05,
        )
        stats = RunnerStats()
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            result = run_campaign(
                jobs=2, run_fn=_hang_run,
                resilience=policy, stats=stats, store=store, **GRID_KW,
            )
            rows = store.attempt_rows(1, 16, 1)
        # the hung cell timed out max_attempts times, then quarantined;
        # every other cell survived the timeout kills.
        assert {(e.exp_id, e.n_tasks, e.rep) for e in result.errors} == {
            (1, 16, 1),
        }
        assert "timed out" in result.errors[0].error
        assert len(result.runs) == 3
        assert stats.timeouts >= 2
        assert stats.retried >= 1
        assert [r["state"] for r in rows].count("timeout") >= 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_hung_cell_quarantined_alike_at_every_jobs(self, tmp_path, jobs):
        """A wall budget holds at ``jobs=1`` too: the cell runs in a
        worker process, so the hung attempt can be killed and retried,
        and the store and ledger read the same as under ``jobs=2``.

        At ``jobs=2`` the other worker runs the other cells; killing the
        hung cell's worker touches none of them.
        """
        policy = ResiliencePolicy(
            cell_timeout_s=2.0, max_attempts=2,
            backoff_base_s=0.01, poll_s=0.05,
        )
        stats = RunnerStats()
        result, states, quarantined, kinds = _stored_outcome(
            tmp_path, jobs, _hang_run,
            resilience=policy, stats=stats, **GRID_KW,
        )
        hung = (1, 16, 1)
        ok = [(1, 8, 0), (1, 8, 1), (1, 16, 0)]
        assert result.runs == [_fake_run(c, 0, None, False) for c in ok]
        assert result.errors == [CellError(*hung, error=(
            "cell timed out (2 attempt(s) over a 2.0s wall budget); "
            "quarantined as a poison cell"
        ))]
        assert states == {
            **{c: ["committed"] for c in ok}, hung: ["timeout", "timeout"],
        }
        assert quarantined == {hung}
        assert kinds == Counter({
            "campaign-start": 1, "attempt_started": 5, "attempt_timeout": 2,
            "cell_retried": 1, "cell": 4, "campaign-end": 1,
        })
        assert (stats.timeouts, stats.retried) == (2, 1)

    def test_budget_runs_from_the_cells_own_dispatch(self, tmp_path):
        """A hung cell handed to a worker right behind a fast cell gets
        its own budget, not what the fast cell left of a shared one."""
        policy = ResiliencePolicy(
            cell_timeout_s=1.0, max_attempts=1, poll_s=0.05,
        )
        result = run_campaign(
            jobs=1, run_fn=functools.partial(_hang_behind_fast_run,
                                             str(tmp_path)),
            resilience=policy, experiments=(1,), task_counts=(8,), reps=8,
        )
        with open(tmp_path / "ran_s") as f:
            ran_s = float(f.read())
        assert 0 < ran_s <= 1.0 + 2 * 0.05 + 0.5
        assert [(e.exp_id, e.n_tasks, e.rep) for e in result.errors] == [
            (1, 8, 1),
        ]
        assert len(result.runs) == 7

    def test_backoff_is_deterministic(self):
        policy = ResiliencePolicy(backoff_base_s=0.5)
        a = policy.backoff_s((1, 16, 1), 2, campaign_seed=7)
        assert a == policy.backoff_s((1, 16, 1), 2, campaign_seed=7)
        assert a != policy.backoff_s((1, 16, 1), 3, campaign_seed=7)
        assert 0.5 * 2 * 0.5 <= a <= 0.5 * 2 * 1.5


# -- ledger events and tail rendering ------------------------------------------


class TestResumeLedger:
    def test_attempt_and_resume_events_reach_both_sinks(self, tmp_path):
        """Both sessions log into the store; the second session's NDJSON
        export holds the whole log, the first session's rows included."""
        path = str(tmp_path / "c.sqlite")
        ndjson = tmp_path / "c.ndjson"
        with CampaignStore(path) as store:
            with RunLedger(store, path=str(ndjson)) as ledger:
                run_campaign(
                    jobs=1, run_fn=_fake_run,
                    store=store, ledger=ledger, **GRID_KW,
                )
        with CampaignStore(path) as store:
            with RunLedger(store, path=str(ndjson)) as ledger:
                run_campaign(
                    jobs=1, run_fn=_fake_run,
                    store=store, ledger=ledger, resume=True, **GRID_KW,
                )
            records = store.ledger_records()
        kinds = [r["kind"] for r in records]
        assert "attempt_started" in kinds
        assert "campaign_resumed" in kinds
        assert kinds.count("campaign-start") == 2
        exported = [
            json.loads(line)
            for line in ndjson.read_text(encoding="utf-8").splitlines()
        ]
        assert exported == records
        with CampaignMonitor(path) as monitor:
            state = monitor.state()
            assert state["done"] == 4  # deduped across both sessions
            assert state["resumed"]["committed"] == 4
            text = render_tail(monitor)
        assert "resumed:" in text
        assert "4/4" in text

    def test_interrupted_tail_state(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        with CampaignStore(path) as store:
            with RunLedger(store) as ledger:
                ledger.campaign_start(4, {})
                ledger.campaign_end(2, 0, 1.0, interrupted=True)
        with CampaignMonitor(path) as monitor:
            assert "interrupted (resumable)" in render_tail(monitor)


# -- CLI guards and exit codes -------------------------------------------------


class TestCliGuards:
    ARGS = ["campaign", "--experiments", "1", "--sizes", "8",
            "--reps", "1", "--seed", "3", "-q"]

    def test_resume_requires_store_flag(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_resume_without_existing_store(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.sqlite")
        assert main(self.ARGS + ["--store", missing, "--resume"]) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_nonempty_store_without_resume_refused(self, tmp_path, capsys):
        path = str(tmp_path / "c.sqlite")
        assert main(self.ARGS + ["--store", path]) == 0
        assert main(self.ARGS + ["--store", path]) == 2
        assert "pass --resume" in capsys.readouterr().err

    def test_store_with_errors_only_refused(self, tmp_path, capsys):
        # a seed-7 campaign's meta and one quarantined cell, no runs: a
        # fresh seed-3 campaign must not merge into them
        path = str(tmp_path / "c.sqlite")
        with CampaignStore(path) as store:
            store.set_campaign_meta(campaign_meta(
                experiments=(1,), task_counts=(8,), reps=1, campaign_seed=7,
            ))
            store.put_error(CellError(1, 8, 0, "stale"))
        assert main(self.ARGS + ["--store", path]) == 2
        assert "pass --resume" in capsys.readouterr().err
        with CampaignStore(path, readonly=True) as store:
            assert store.run_count() == 0
            assert store.campaign_meta()["campaign_seed"] == 7

    def test_non_store_file_refused(self, tmp_path, capsys):
        path = str(tmp_path / "c.sqlite")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not a database")
        assert main(self.ARGS + ["--store", path]) == 2
        assert "not a campaign store" in capsys.readouterr().err

    def test_incompatible_resume_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "c.sqlite")
        assert main(self.ARGS + ["--store", path]) == 0
        rc = main(["campaign", "--experiments", "1", "--sizes", "8",
                   "--reps", "1", "--seed", "4", "-q",
                   "--store", path, "--resume"])
        assert rc == 2
        assert "refusing to resume" in capsys.readouterr().err

    def test_completed_store_resume_is_a_noop(self, tmp_path, capsys):
        path = str(tmp_path / "c.sqlite")
        assert main(self.ARGS + ["--store", path]) == 0
        before = _digest(path)
        assert main(self.ARGS + ["--store", path, "--resume"]) == 0
        assert _digest(path) == before


# -- kill-proof subprocess chaos -----------------------------------------------


def _spawn_campaign(store_path, extra=(), seed=5):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign",
         "--experiments", "1", "--sizes", "8", "--reps", "8",
         "--seed", str(seed), "-q", "-j", "2",
         "--store", store_path, *extra],
        cwd=REPO, env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _poll_runs(store_path, at_least, proc, timeout_s=60.0):
    """Wait until the live store holds >= ``at_least`` committed runs."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            return -1  # campaign finished before we could interfere
        try:
            conn = sqlite3.connect(
                f"file:{store_path}?mode=ro", uri=True, timeout=0.2
            )
            try:
                n = conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
            finally:
                conn.close()
            if n >= at_least:
                return n
        except sqlite3.Error:
            pass  # store not created / schema not there yet
        time.sleep(0.01)
    raise AssertionError(f"store never reached {at_least} committed runs")


def _cli_campaign(store_path, extra=(), seed=5):
    return main([
        "campaign", "--experiments", "1", "--sizes", "8", "--reps", "8",
        "--seed", str(seed), "-q", "-j", "2", "--store", store_path,
        *extra,
    ])


class TestKillProofResume:
    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        clean = str(tmp_path / "clean.sqlite")
        assert _cli_campaign(clean) == 0

        chaos = str(tmp_path / "chaos.sqlite")
        proc = _spawn_campaign(chaos)
        try:
            seen = _poll_runs(chaos, 2, proc)
            if seen >= 0:
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            rc = proc.wait(timeout=60)
            if seen >= 0:
                assert rc == -signal.SIGKILL
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup only
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)

        if seen >= 0:
            # SIGKILL left whole committed rows only, plus stale leases.
            with CampaignStore(chaos, readonly=True) as store:
                assert store.run_count() < 8
        assert _cli_campaign(chaos, extra=["--resume"]) == 0
        assert _digest(chaos) == _digest(clean)

    def test_sigkill_of_the_parent_leaves_no_worker(self, tmp_path):
        """Workers read EOF on their pipes when the parent dies, and exit
        once their cell ends: no orphan keeps running."""
        store = str(tmp_path / "c.sqlite")
        proc = _spawn_campaign(store, extra=["--reps", "64"])
        try:
            assert _poll_runs(store, 1, proc) >= 1
            assert len(_session_procs(proc.pid)) >= 3  # parent + 2 workers
            os.kill(proc.pid, signal.SIGKILL)
            assert proc.wait(timeout=60) == -signal.SIGKILL
            deadline = time.monotonic() + 10
            while _session_procs(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _session_procs(proc.pid) == []
        finally:
            for pid in _session_procs(proc.pid):  # pragma: no cover
                os.kill(pid, signal.SIGKILL)
            if proc.poll() is None:  # pragma: no cover - cleanup only
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)

    def test_sigint_drains_to_exit_75_then_resumes(self, tmp_path):
        clean = str(tmp_path / "clean.sqlite")
        assert _cli_campaign(clean) == 0

        chaos = str(tmp_path / "chaos.sqlite")
        proc = _spawn_campaign(chaos)
        try:
            seen = _poll_runs(chaos, 1, proc)
            if seen >= 0:
                proc.send_signal(signal.SIGINT)
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup only
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)

        if seen >= 0:
            assert rc == EXIT_RESUMABLE
            with CampaignStore(chaos, readonly=True) as store:
                assert store.interrupted() is True
                assert store.lease_count() == 0  # drain closed every lease
        else:  # raced to completion before the signal landed
            assert rc == 0
        assert _cli_campaign(chaos, extra=["--resume"]) == 0
        assert _digest(chaos) == _digest(clean)
        with CampaignStore(chaos, readonly=True) as store:
            assert store.interrupted() is False
