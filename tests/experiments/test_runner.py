"""Tests for the campaign executor.

The headline property: a ``jobs=N`` campaign is indistinguishable from a
``jobs=1`` one — same RunResults, same order, same digests, and the same
errors, store attempts and ledger on the failure paths — because every
repetition seeds itself from its grid coordinates alone and every
``jobs`` goes through one executor.
"""

from contextlib import closing
import dataclasses
import functools
import json
import os
import signal
import time
from collections import Counter

import pytest

from repro.experiments import (
    CampaignStore,
    ResiliencePolicy,
    RunLedger,
    run_campaign,
)
from repro.experiments.campaign import CampaignResult, CellError, RunResult
from repro.experiments.io import run_to_dict
from repro.experiments.runner import (
    RunnerStats,
    cell_cost,
    GridError,
    _Worker,
    resolve_jobs,
    run_grid,
)


def _canon(runs):
    """NaN-tolerant canonical form (NaN != NaN breaks plain ==)."""
    return json.dumps(
        [dataclasses.asdict(r) for r in runs], sort_keys=True, default=str
    )


# -- module-level run functions (workers unpickle them by reference) ----------

_FAKE_FIELDS = dict(
    resources=("r",), ttc=1.0, tw=0.0, tw_last=0.0, tx=0.0, ts=0.0,
    trp=0.0, pilot_waits=(0.0,), restarts=0,
)


def _fake_run(cell, campaign_seed, resource_pool, collect_digests):
    exp_id, n_tasks, rep = cell
    return RunResult(
        exp_id=exp_id, n_tasks=n_tasks, rep=rep,
        units_done=n_tasks, **_FAKE_FIELDS,
    )


def _error_run(cell, campaign_seed, resource_pool, collect_digests):
    if cell[2] == 1:  # every rep-1 repetition blows up
        raise ValueError("injected failure")
    return _fake_run(cell, campaign_seed, resource_pool, collect_digests)


def _crash_run(cell, campaign_seed, resource_pool, collect_digests):
    if cell == (1, 16, 1):
        os._exit(13)  # simulate a segfaulting worker
    return _fake_run(cell, campaign_seed, resource_pool, collect_digests)


def _crash_beside_slow_run(cell, campaign_seed, resource_pool, collect_digests):
    if cell == (1, 16, 0):
        time.sleep(0.5)  # still running when (1, 16, 1) kills its worker
    return _crash_run(cell, campaign_seed, resource_pool, collect_digests)


def _dead(pid):
    """Whether ``pid`` has exited (a zombie not yet reaped counts)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _idle_pid_run(marks, cell, campaign_seed, resource_pool, collect_digests):
    """``(1, 8, 0)`` leaves its worker's pid in ``marks``; ``(1, 16, 0)``
    runs until that worker is dead."""
    path = os.path.join(marks, "idle.pid")
    if cell == (1, 8, 0):
        with open(path + ".tmp", "w") as f:
            f.write(str(os.getpid()))
        os.replace(path + ".tmp", path)
    elif cell == (1, 16, 0):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not (
            os.path.exists(path) and _dead(int(open(path).read()))
        ):
            time.sleep(0.01)
    return _fake_run(cell, campaign_seed, resource_pool, collect_digests)


def _double(cell):
    return 2 * cell[2]


def _fail_rep_1(marks, how, cell):
    """Raise (``how="raise"``) or kill the worker (``"exit"``) on rep 1;
    any other cell leaves a marker file in ``marks`` as it completes."""
    if cell[2] == 1:
        if how == "exit":
            os._exit(13)  # simulate a segfaulting worker
        raise ValueError("injected failure")
    open(os.path.join(marks, "%d-%d-%d" % cell), "w").close()
    return cell


def _stored_outcome(tmp_path, jobs, run_fn, **kwargs):
    """Run a campaign with a store and a ledger; return what must not
    depend on ``jobs``: the result, each cell's attempt states, the
    quarantined cells in the store, and the multiset of ledger kinds.
    """
    path = str(tmp_path / f"j{jobs}.sqlite")
    with CampaignStore(path) as store:
        with closing(RunLedger(store)) as ledger:
            result = run_campaign(
                jobs=jobs, run_fn=run_fn, store=store, ledger=ledger,
                **kwargs,
            )
        states = {}
        for row in store.attempt_rows():
            cell = (row["exp_id"], row["n_tasks"], row["rep"])
            states.setdefault(cell, []).append(row["state"])
        quarantined = store.error_cells()
        kinds = Counter(r["kind"] for r in store.ledger_records())
    return result, states, quarantined, kinds


# -- scheduling helpers --------------------------------------------------------


class TestResolveJobs:
    def test_explicit_count_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_usable_cpus(self):
        cpus = len(os.sched_getaffinity(0))
        assert resolve_jobs(0) == max(1, cpus)
        assert resolve_jobs(None) == max(1, cpus)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestPlanChunks:
    """The executor's dispatch plan: every worker holds a chunk of one
    cell, and the cells go out biggest cost first, ties in grid order.
    The plan is read back from the ledger's ``attempt_started`` records.
    """

    GRID_KW = dict(experiments=(1, 3), task_counts=(8, 64, 512, 2048), reps=3)
    GRID = [
        (e, n, r)
        for e in (1, 3)
        for n in (8, 64, 512, 2048)
        for r in range(3)
    ]

    @staticmethod
    def _dispatched(tmp_path, jobs, name="c", **grid_kw):
        """Cells in the order their attempts started, and the stats."""
        stats = RunnerStats()
        with CampaignStore(str(tmp_path / f"{name}.sqlite")) as store:
            with closing(RunLedger(store)) as ledger:
                run_campaign(
                    jobs=jobs, run_fn=_fake_run, store=store, ledger=ledger,
                    resilience=ResiliencePolicy(cell_timeout_s=60.0),
                    stats=stats, **grid_kw,
                )
            started = [
                (r["exp"], r["n"], r["rep"]) for r in store.ledger_records()
                if r["kind"] == "attempt_started"
            ]
        return started, stats

    def test_covers_every_cell_exactly_once(self, tmp_path):
        started, stats = self._dispatched(tmp_path, 2, **self.GRID_KW)
        assert sorted(started) == sorted(self.GRID)
        assert stats.workers == 2

    def test_biggest_cells_dispatch_first(self, tmp_path):
        started, _ = self._dispatched(tmp_path, 2, **self.GRID_KW)
        assert started[0][1] == 2048
        costs = [cell_cost(c) for c in started]
        assert costs == sorted(costs, reverse=True)

    def test_deterministic(self, tmp_path):
        first, _ = self._dispatched(tmp_path, 2, "a", **self.GRID_KW)
        second, _ = self._dispatched(tmp_path, 2, "b", **self.GRID_KW)
        assert first == second
        assert first == sorted(self.GRID, key=cell_cost, reverse=True)

    def test_empty_grid(self):
        stats = RunnerStats()
        result = run_campaign(
            experiments=(1,), task_counts=(8,), reps=0, jobs=2,
            resilience=ResiliencePolicy(cell_timeout_s=60.0), stats=stats,
        )
        assert not result.runs and not result.errors
        assert stats.workers == 0

    def test_single_worker_still_chunks(self, tmp_path):
        # jobs=1 with a wall budget runs on one worker, one cell at a time
        started, stats = self._dispatched(tmp_path, 1, **self.GRID_KW)
        assert stats.workers == 1
        assert started == sorted(self.GRID, key=cell_cost, reverse=True)

    def test_cost_scales_with_observed_resources(self):
        # Exp3/4 simulate three resources, Exp1/2 one
        for n in (8, 64, 2048):
            assert cell_cost((3, n, 0)) > cell_cost((1, n, 0))
            assert cell_cost((4, n, 0)) > cell_cost((2, n, 0))
            assert cell_cost((1, n, 0)) == cell_cost((2, n, 0))

    def test_equal_costs_keep_grid_order(self, tmp_path):
        grid = [(1, 64, r) for r in range(5)] + [(2, 64, r) for r in range(5)]
        started, _ = self._dispatched(
            tmp_path, 2, experiments=(1, 2), task_counts=(64,), reps=5,
        )
        assert started == grid


# -- the determinism contract --------------------------------------------------


class TestParallelEqualsSerial:
    def test_field_by_field_with_digests(self):
        kwargs = dict(
            experiments=(1, 3), task_counts=(8,), reps=2,
            campaign_seed=7, collect_digests=True,
        )
        serial = run_campaign(**kwargs)
        stats = RunnerStats()
        par = run_campaign(jobs=4, stats=stats, **kwargs)
        assert not par.errors
        assert stats.completed == len(serial.runs) == 4
        # Field-by-field, in the same grid order, including the
        # telemetry/fault/health digest of every repetition.
        assert _canon(par.runs) == _canon(serial.runs)
        assert all(r.digest for r in par.runs)
        assert [r.digest for r in par.runs] == [
            r.digest for r in serial.runs
        ]
        assert all(r.events > 0 for r in par.runs)

    def test_jobs_param_on_run_campaign_delegates(self):
        kwargs = dict(
            experiments=(1,), task_counts=(8,), reps=2, campaign_seed=3,
        )
        serial = run_campaign(**kwargs)
        par = run_campaign(jobs=2, **kwargs)
        assert _canon(par.runs) == _canon(serial.runs)


class TestPrivateStoreEqualsFileStore:
    """A campaign given no store records into a private in-memory one.

    It must return the same payloads and stream the same attempt numbers
    as the same campaign recording into a store file, at every ``jobs``.
    Payloads are compared as JSON: ``pilot_waits`` holds NaN for pilots
    that never started, and NaN breaks ``RunResult ==``.
    """

    @staticmethod
    def _outcome(monkeypatch, jobs, store_path=None, **kwargs):
        # the parent opens every attempt through ``begin_attempt``, so a
        # spy on it reads the attempt numbers of a private store too.
        attempts = []
        begin = CampaignStore.begin_attempt

        def spy(store, *cell, **kw):
            attempts.append((*cell, begin(store, *cell, **kw)))
            return attempts[-1][-1]

        with monkeypatch.context() as patch:
            patch.setattr(CampaignStore, "begin_attempt", spy)
            if store_path is None:
                result = run_campaign(jobs=jobs, **kwargs)
            else:
                with CampaignStore(store_path) as store:
                    result = run_campaign(jobs=jobs, store=store, **kwargs)
        payloads = [
            json.dumps(run_to_dict(r), sort_keys=True) for r in result.runs
        ]
        errors = [(e.exp_id, e.n_tasks, e.rep) for e in result.errors]
        return payloads, errors, sorted(attempts)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_payloads_equal(self, tmp_path, monkeypatch, jobs):
        kwargs = dict(
            experiments=(1, 3), task_counts=(8, 16), reps=2,
            campaign_seed=2016,
        )
        private = self._outcome(monkeypatch, jobs, **kwargs)
        on_file = self._outcome(
            monkeypatch, jobs, str(tmp_path / "c.sqlite"), **kwargs
        )
        assert private == on_file
        assert len(private[0]) == 8 and not private[1]
        assert any("NaN" in p for p in private[0])  # the case == misses

    def test_retry_attempt_numbers_equal(self, tmp_path, monkeypatch):
        # the crashing cell is retried in a fresh worker, so its attempt
        # numbers reach 2; a wall budget sends jobs=1 to one worker.
        kwargs = dict(
            run_fn=_crash_run,
            resilience=ResiliencePolicy(cell_timeout_s=60.0),
            experiments=(1,), task_counts=(8, 16), reps=2, campaign_seed=0,
        )
        for jobs in (1, 2):
            private = self._outcome(monkeypatch, jobs, **kwargs)
            on_file = self._outcome(
                monkeypatch, jobs, str(tmp_path / f"c{jobs}.sqlite"),
                **kwargs,
            )
            assert private == on_file
            assert private[1] == [(1, 16, 1)]
            assert (1, 16, 1, 2) in private[2]


# -- containment and reporting -------------------------------------------------


class TestContainment:
    GRID_KW = dict(
        experiments=(1,), task_counts=(8, 16), reps=2, campaign_seed=0,
    )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_exception_recorded_not_fatal(self, tmp_path, jobs):
        """A raising cell is a CellError at every ``jobs``, with the same
        result, store attempts and ledger kinds. One difference remains
        by design: an in-process cell (``jobs=1``) that calls
        ``os._exit`` takes the campaign down, and resume recovers it;
        in a worker process the crash costs that cell only.
        """
        result, states, quarantined, kinds = _stored_outcome(
            tmp_path, jobs, _error_run,
            **self.GRID_KW,
        )
        ok, bad = [(1, 8, 0), (1, 16, 0)], [(1, 8, 1), (1, 16, 1)]
        # rep 0 of each size survives, in grid order, whatever ``jobs``
        assert result.runs == [_fake_run(c, 0, None, False) for c in ok]
        assert result.errors == [
            CellError(*c, error="ValueError: injected failure") for c in bad
        ]
        assert states == {
            **{c: ["committed"] for c in ok},
            **{c: ["failed"] for c in bad},
        }
        assert quarantined == set(bad)
        assert kinds == Counter({
            "campaign-start": 1, "attempt_started": 4, "cell": 4,
            "campaign-end": 1,
        })

    def test_worker_crash_contained_to_one_cell(self):
        stats = RunnerStats()
        result = run_campaign(
            jobs=2, run_fn=_crash_run,
            stats=stats, **self.GRID_KW,
        )
        # the crashing repetition is reported, the other three survive
        assert {(e.exp_id, e.n_tasks, e.rep) for e in result.errors} == {
            (1, 16, 1),
        }
        assert "crashed" in result.errors[0].error
        assert len(result.runs) == 3
        assert stats.worker_restarts == 2  # one per crash

    def test_cell_running_beside_a_crash_is_not_blamed(self, tmp_path):
        """Each worker holds one cell, so a crash is charged to the cell
        its worker held, never to the cell running beside it: ``jobs=2``
        leaves the result, attempt states and ledger kinds of ``jobs=1``
        with a wall budget (one worker process)."""
        serial = _stored_outcome(
            tmp_path, 1, _crash_beside_slow_run,
            resilience=ResiliencePolicy(cell_timeout_s=60.0), **self.GRID_KW,
        )
        par = _stored_outcome(
            tmp_path, 2, _crash_beside_slow_run, **self.GRID_KW,
        )
        assert par[0].runs == serial[0].runs
        assert par[0].errors == serial[0].errors
        assert par[1:] == serial[1:]
        result, states, quarantined, kinds = par
        assert [(e.exp_id, e.n_tasks, e.rep) for e in result.errors] == [
            (1, 16, 1),
        ]
        assert [(r.exp_id, r.n_tasks, r.rep) for r in result.runs] == [
            (1, 8, 0), (1, 8, 1), (1, 16, 0),
        ]
        assert states == {
            (1, 8, 0): ["committed"], (1, 8, 1): ["committed"],
            (1, 16, 0): ["committed"], (1, 16, 1): ["crashed", "crashed"],
        }
        assert quarantined == {(1, 16, 1)}
        assert kinds == Counter({
            "campaign-start": 1, "attempt_started": 5, "attempt_lost": 2,
            "cell_retried": 1, "cell": 4, "campaign-end": 1,
        })

    def test_idle_worker_death_costs_no_attempt(self, tmp_path):
        def kill_idle_worker(progress):
            if progress.cell == (1, 8, 0):  # its worker has nothing left
                with open(tmp_path / "idle.pid") as f:
                    os.kill(int(f.read()), signal.SIGKILL)

        stats = RunnerStats()
        result, states, quarantined, kinds = _stored_outcome(
            tmp_path, 2, functools.partial(_idle_pid_run, str(tmp_path)),
            on_progress=kill_idle_worker, stats=stats,
            experiments=(1,), task_counts=(8, 16), reps=1,
        )
        assert not result.errors and len(result.runs) == 2
        assert states == {(1, 8, 0): ["committed"], (1, 16, 0): ["committed"]}
        assert not quarantined
        assert kinds == Counter({
            "campaign-start": 1, "attempt_started": 2, "cell": 2,
            "campaign-end": 1,
        })
        assert stats.worker_restarts == 1

    def test_cell_handed_to_a_dead_idle_worker_goes_to_a_fresh_one(
        self, tmp_path, monkeypatch,
    ):
        """The first hand-over finds its worker already dead: the cell
        goes to a fresh worker and no attempt is charged."""
        give = _Worker.give

        def give_after_killing_the_first(worker, cell):
            if not killed:
                worker.proc.kill()
                worker.proc.join()
                killed.append(cell)
            return give(worker, cell)

        killed = []
        monkeypatch.setattr(_Worker, "give", give_after_killing_the_first)
        stats = RunnerStats()
        result, states, quarantined, kinds = _stored_outcome(
            tmp_path, 2, _fake_run, stats=stats, **self.GRID_KW,
        )
        assert killed == [(1, 16, 0)]
        assert not result.errors and len(result.runs) == 4
        assert set(map(len, states.values())) == {1}
        assert set(sum(states.values(), [])) == {"committed"}
        assert not quarantined
        assert kinds["attempt_started"] == 4
        assert stats.worker_restarts == 1

    def test_progress_callback_counts_to_total(self):
        seen = []
        result = run_campaign(
            jobs=2, run_fn=_fake_run,
            on_progress=seen.append,
            **self.GRID_KW,
        )
        assert len(result.runs) == 4
        assert seen[-1].done == 4 and seen[-1].total == 4
        assert [p.done for p in seen] == sorted(p.done for p in seen)
        assert {p.cell for p in seen} == {
            (1, 8, 0), (1, 8, 1), (1, 16, 0), (1, 16, 1),
        }
        assert all(p.ok and p.error is None for p in seen)
        assert all(p.wall_s >= 0 for p in seen)

    def test_results_in_grid_order_regardless_of_completion(self):
        result = run_campaign(
            jobs=2, run_fn=_fake_run,
            **self.GRID_KW,
        )
        assert [(r.exp_id, r.n_tasks, r.rep) for r in result.runs] == [
            (1, 8, 0), (1, 8, 1), (1, 16, 0), (1, 16, 1),
        ]


# -- run_grid: the executor for ablation-style grids --------------------------


class TestRunGrid:
    @staticmethod
    def _cells(n):
        return [(0, 8, rep) for rep in range(n)]

    def test_serial_fallback_preserves_order(self):
        cells = [(0, 8, 3), (0, 8, 1), (0, 8, 2)]
        assert run_grid(_double, cells, jobs=1) == [6, 2, 4]

    def test_parallel_preserves_order(self):
        cells = self._cells(20)
        assert run_grid(_double, cells, jobs=4) == [2 * i for i in range(20)]

    def test_single_item_runs_in_process(self):
        assert run_grid(_double, [(0, 8, 21)], jobs=8) == [42]

    # an ablation-style grid: two arms x three reps, rep 1 of each bad
    ARMS = [(arm, 8, rep) for arm in range(2) for rep in range(3)]
    BAD = [(0, 8, 1), (1, 8, 1)]

    def _failing_grid(self, tmp_path, how, jobs):
        """Run the grid; return its GridError and the completed cells."""
        fn = functools.partial(_fail_rep_1, str(tmp_path), how)
        with pytest.raises(GridError) as info:
            run_grid(fn, self.ARMS, jobs=jobs)
        done = sorted(
            tuple(int(x) for x in name.split("-"))
            for name in os.listdir(tmp_path)
        )
        return info.value, done

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_cell_is_named_after_the_rest_finish(self, tmp_path, jobs):
        err, done = self._failing_grid(tmp_path, "raise", jobs)
        assert done == [c for c in self.ARMS if c not in self.BAD]
        assert err.errors == [
            CellError(*c, error="ValueError: injected failure")
            for c in self.BAD
        ]
        assert str(err).startswith("2 of 6 cell(s) failed: ")
        assert "(0, 8, 1) ValueError: injected failure" in str(err)
        assert "(1, 8, 1) ValueError: injected failure" in str(err)

    def test_crashing_cell_is_contained(self, tmp_path):
        err, done = self._failing_grid(tmp_path, "exit", jobs=2)
        assert done == [c for c in self.ARMS if c not in self.BAD]
        assert [(e.exp_id, e.n_tasks, e.rep) for e in err.errors] == self.BAD
        assert all("crashed" in e.error for e in err.errors)
        assert "(0, 8, 1) worker process crashed" in str(err)
        assert "(1, 8, 1) worker process crashed" in str(err)
