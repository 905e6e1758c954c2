"""Tests for the campaign executor.

The headline property: a ``jobs=N`` campaign is indistinguishable from a
``jobs=1`` one — same RunResults, same order, same digests, and the same
errors, store attempts and ledger on the failure paths — because every
repetition seeds itself from its grid coordinates alone and every
``jobs`` goes through one executor.
"""

import dataclasses
import functools
import json
import os
import time
from collections import Counter

import pytest

from repro.experiments import (
    CampaignStore,
    ResiliencePolicy,
    RunLedger,
    read_ledger,
    run_campaign,
)
from repro.experiments.campaign import CampaignResult, CellError, RunResult
from repro.experiments.io import run_to_dict
from repro.experiments.runner import (
    RunnerStats,
    cell_cost,
    GridError,
    plan_chunks,
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
    ndjson = str(tmp_path / f"j{jobs}.ndjson")
    with CampaignStore(path) as store:
        with RunLedger(ndjson) as ledger:
            result = run_campaign(
                jobs=jobs, run_fn=run_fn, store=store, ledger=ledger,
                **kwargs,
            )
        states = {}
        for row in store.attempt_rows():
            cell = (row["exp_id"], row["n_tasks"], row["rep"])
            states.setdefault(cell, []).append(row["state"])
        quarantined = store.error_cells()
    kinds = Counter(r["kind"] for r in read_ledger(ndjson))
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
    GRID = [
        (e, n, r)
        for e in (1, 3)
        for n in (8, 64, 512, 2048)
        for r in range(3)
    ]

    def test_covers_every_cell_exactly_once(self):
        chunks = plan_chunks(self.GRID, jobs=4, cost=cell_cost)
        flat = [c for chunk in chunks for c in chunk]
        assert sorted(flat) == sorted(self.GRID)

    def test_biggest_cells_dispatch_first(self):
        chunks = plan_chunks(self.GRID, jobs=4, cost=cell_cost)
        assert chunks[0][0][1] == 2048
        costs = [cell_cost(c) for chunk in chunks for c in chunk]
        assert costs == sorted(costs, reverse=True)

    def test_deterministic(self):
        assert plan_chunks(self.GRID, 4, cell_cost) == plan_chunks(
            self.GRID, 4, cell_cost
        )

    def test_empty_grid(self):
        assert plan_chunks([], jobs=4, cost=cell_cost) == []

    def test_single_worker_still_chunks(self):
        chunks = plan_chunks(self.GRID, jobs=1, cost=cell_cost)
        assert sum(len(c) for c in chunks) == len(self.GRID)

    def test_cost_scales_with_observed_resources(self):
        # Exp3/4 simulate three resources, Exp1/2 one
        for n in (8, 64, 2048):
            assert cell_cost((3, n, 0)) > cell_cost((1, n, 0))
            assert cell_cost((4, n, 0)) > cell_cost((2, n, 0))
            assert cell_cost((1, n, 0)) == cell_cost((2, n, 0))

    def test_equal_costs_keep_grid_order(self):
        grid = [(1, 64, r) for r in range(5)] + [(2, 64, r) for r in range(5)]
        chunks = plan_chunks(grid, jobs=2, cost=cell_cost)
        flat = [c for chunk in chunks for c in chunk]
        assert flat == grid


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
    def _outcome(tmp_path, name, jobs, store_path=None, **kwargs):
        ndjson = str(tmp_path / f"{name}.ndjson")
        with RunLedger(ndjson) as ledger:
            if store_path is None:
                result = run_campaign(jobs=jobs, ledger=ledger, **kwargs)
            else:
                with CampaignStore(store_path) as store:
                    result = run_campaign(
                        jobs=jobs, ledger=ledger, store=store, **kwargs
                    )
        payloads = [
            json.dumps(run_to_dict(r), sort_keys=True) for r in result.runs
        ]
        errors = [(e.exp_id, e.n_tasks, e.rep) for e in result.errors]
        attempts = sorted(
            (r["exp"], r["n"], r["rep"], r["attempt"])
            for r in read_ledger(ndjson) if r["kind"] == "attempt_started"
        )
        return payloads, errors, attempts

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_payloads_equal(self, tmp_path, jobs):
        kwargs = dict(
            experiments=(1, 3), task_counts=(8, 16), reps=2,
            campaign_seed=2016,
        )
        private = self._outcome(tmp_path, "private", jobs, **kwargs)
        on_file = self._outcome(
            tmp_path, "file", jobs, str(tmp_path / "c.sqlite"), **kwargs
        )
        assert private == on_file
        assert len(private[0]) == 8 and not private[1]
        assert any("NaN" in p for p in private[0])  # the case == misses

    def test_retry_attempt_numbers_equal(self, tmp_path):
        # a wall budget sends jobs=1 to a one-worker pool, where the
        # crashing cell is retried, so its attempt numbers reach 2. (At
        # jobs=2 which cells share the broken pool depends on timing.)
        jobs = 1
        kwargs = dict(
            run_fn=_crash_run,
            resilience=ResiliencePolicy(cell_timeout_s=60.0),
            experiments=(1,), task_counts=(8, 16), reps=2, campaign_seed=0,
        )
        private = self._outcome(tmp_path, "private", jobs, **kwargs)
        on_file = self._outcome(
            tmp_path, "file", jobs, str(tmp_path / "c.sqlite"), **kwargs
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
        under a pool the crash costs that cell only.
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
        assert stats.pool_restarts >= 1

    def test_cell_running_beside_a_crash_is_not_blamed(self):
        """A broken pool does not say which worker died, so the cell that
        was running beside the crash is retried alone, not charged."""
        result = run_campaign(
            jobs=2,
            run_fn=_crash_beside_slow_run,
            **self.GRID_KW,
        )
        assert [(e.exp_id, e.n_tasks, e.rep) for e in result.errors] == [
            (1, 16, 1),
        ]
        assert [(r.exp_id, r.n_tasks, r.rep) for r in result.runs] == [
            (1, 8, 0), (1, 8, 1), (1, 16, 0),
        ]

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
