"""Grid execution: one executor, with an in-process or a worker-process cell.

A Monte-Carlo grid is embarrassingly parallel: every cell seeds itself
from its own integer coordinates via ``np.random.SeedSequence`` and
runs in a fresh simulation. One executor (:func:`_execute`) runs a
picklable cell function over the grid, records every attempt of a cell
in a :class:`~repro.experiments.store.CampaignStore`'s campaign log
through one :class:`~repro.experiments.ledger.RunLedger`, and handles
SIGINT/SIGTERM the same way whatever ``jobs`` is. Its two callers are
:func:`run_campaign` (the Table I grid, with a result store and resume) and
:func:`run_grid` (the ablation studies and the calibration). Only
*where* a cell runs differs, and the executor picks that from what it
can observe:

* **In-process** when ``jobs`` resolves to 1 or at most one cell
  remains, and no per-cell wall budget is set. No worker is started,
  and a second signal preempts the running cell.
* **Worker processes** otherwise (:func:`_execute_workers`). A wall
  budget needs a process it can kill, so ``cell_timeout_s`` sends even
  ``jobs=1`` to one worker process.

Either way a cell runs through :func:`_run_cell`, which turns an
exception into a :class:`~repro.experiments.campaign.CellError` for
that cell alone. One difference remains by design: an in-process cell
that kills its process (``os._exit``, segfault) takes the grid down
with it, and a campaign's ``--resume`` recovers it; a worker's crash
costs the cell only.

Determinism contract
--------------------
Every ``jobs`` gives a *bit-identical* grid:

* Seeding depends only on the cell coordinates, never on execution
  order, worker identity, or wall-clock time.
* Workers return completed results; the parent never mutates them.
* Results are re-ordered into grid order before they are returned, so
  downstream consumers see the same sequence regardless of which
  worker finished first.

``tests/experiments/test_runner.py`` asserts field-by-field equality of
``jobs=1`` and ``jobs=N`` campaigns — including the per-repetition
telemetry/fault/health digests, and the error, crash and timeout
paths — and ``tests/experiments/test_ablation_golden.py`` the same, bit
for bit, for every ablation study and the calibration.

Workers
-------
Each of the ``jobs`` long-lived worker processes owns one
:func:`multiprocessing.Pipe` and holds at most one cell. The parent
hands cells out biggest first by the grid's cost function (a
campaign's :func:`cell_cost`: a cell's wall time grows roughly
linearly in ``n_tasks`` on top of a fixed environment-construction
overhead; every other grid's cells cost one unit each; ties keep grid
order), so the long cells do not land at the tail of the schedule
where they would leave the other workers idle. It waits on the pipes
with :func:`multiprocessing.connection.wait`, and because it knows
which cell each worker holds, every loss has one owner:

* EOF on a busy worker's pipe means the worker died (segfault, OOM
  kill): the cell it held is charged a crash and retried at once.
* A cell past ``cell_timeout_s`` since its own dispatch gets its worker
  SIGKILLed, and is charged a timeout and retried after a seeded
  backoff.
* A worker that died while idle costs no attempt.

A dead or killed worker is replaced by a fresh one, and no other cell
is touched. A cell charged ``max_attempts`` losses is recorded as a
:class:`~repro.experiments.campaign.CellError` instead of a result.
Ordinary exceptions inside a repetition never cost a worker — the
worker catches them per cell and reports them as errors. A worker
reads EOF when the parent dies, too, and exits once its cell ends, so
a SIGKILLed campaign leaves no worker behind.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from dataclasses import dataclass
from functools import partial
from multiprocessing.connection import Connection, wait
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from ..skeleton import PAPER_TASK_COUNTS
from . import campaign
from .campaign import (
    TABLE1,
    CampaignResult,
    CellError,
    CellProgress,
    RunResult,
    campaign_meta,
)
from .ledger import RunLedger
from .resilience import (
    CampaignInterrupted,
    ResiliencePolicy,
    ShutdownControl,
    check_fresh,
    prepare_resume,
)
from .store import CampaignStore

log = logging.getLogger(__name__)

#: One cell's coordinates: ``(exp_id, n_tasks, rep)`` in a campaign,
#: ``(arm, size, rep)`` in an ablation grid.
Cell = Tuple[int, int, int]

#: minimum interval between two writes of the parent's heartbeat.
HEARTBEAT_S = 1.0

#: Environment setup (building, priming and warming up one observed
#: resource) costs about as much as 160 tasks' worth of simulated
#: execution: a least-squares fit of cell wall = a * resources + b * tasks
#: over Exp1-4 x {8, 64, 256, 1024, 2048} x 2 reps gave a = 69 ms and
#: b = 0.43 ms (2-CPU x86-64 host). The rest of a cell's wall time is
#: close to linear in its task count.
_COST_PER_RESOURCE = 160


def resolve_jobs(jobs: Optional[int]) -> int:
    """Map a ``--jobs`` value to a worker count.

    ``0`` or ``None`` means one worker per *usable* CPU — the scheduling
    affinity mask, not the raw core count, so cgroup/taskset-restricted
    environments (CI runners, containers) are sized honestly.
    """
    if jobs is None or jobs == 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux fallback
            return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return int(jobs)


def cell_cost(cell: Cell) -> int:
    """Relative wall-time estimate for one repetition.

    A cell simulates one resource per pilot (Exp1/2: one, Exp3/4: three).
    """
    exp_id, n_tasks, _ = cell
    return _COST_PER_RESOURCE * TABLE1[exp_id].n_pilots + n_tasks


def cost_eta(grid: Iterable[Cell], walls: Mapping[Cell, float]) -> float:
    """Seconds left: observed wall per unit of :func:`cell_cost`, times
    the cost of the ``grid`` cells not in ``walls`` (the cells done).

    Weighting by cost keeps the estimate honest across the x30 spread
    between an 8-task and a 2048-task cell, which a mean wall per cell
    gets badly wrong.
    """
    spent_cost = sum(cell_cost(cell) for cell in walls)
    if not spent_cost:
        return 0.0
    left = sum(cell_cost(cell) for cell in grid if cell not in walls)
    return sum(walls.values()) / spent_cost * left


# -- worker side (module-level: must be picklable under spawn too) -------------


def _default_run_cell(
    cell: Cell,
    campaign_seed: int,
    resource_pool: Optional[Tuple[str, ...]],
    collect_digests: bool,
) -> RunResult:
    """Execute one campaign repetition in the worker process."""
    exp_id, n_tasks, rep = cell
    # looked up per call, so a wrapped ``campaign.run_single`` (tracing,
    # fault injection in tests) takes effect
    return campaign.run_single(
        TABLE1[exp_id], n_tasks, rep,
        campaign_seed=campaign_seed,
        resource_pool=resource_pool,
        collect_digests=collect_digests,
    )


def _run_cell(
    fn: Callable[[Cell], object], cell: Cell,
) -> Tuple[str, Cell, object, dict]:
    """Run ``fn`` on one cell; returns a ``(status, cell, payload, meta)``
    row.

    An exception is contained to the cell — it costs that cell, not the
    worker and not the grid. The meta dict carries the cell's wall time
    and the worker's pid, feeding the run ledger and progress callbacks.
    """
    w0 = time.perf_counter()
    try:
        status, payload = "ok", fn(cell)
    except Exception as exc:  # noqa: BLE001 - containment boundary
        status, payload = "error", f"{type(exc).__name__}: {exc}"
    meta = {"wall_s": time.perf_counter() - w0, "worker": os.getpid()}
    return status, cell, payload, meta


def _serve(
    conn: Connection, fn: Callable[[Cell], object],
    inherited: Sequence[Connection],
) -> None:
    """Worker process: run each cell the pipe brings until it closes.

    ``inherited`` are the parent's ends of every pipe, this worker's own
    among them. A forked worker holds copies of them, and must close
    those, or it would never read EOF when the parent dies.
    """
    for end in inherited:
        end.close()
    try:
        while True:
            conn.send(_run_cell(fn, conn.recv()))
    except (EOFError, OSError):
        pass  # the parent closed the pipe, or died


# -- parent side ---------------------------------------------------------------


@dataclass
class RunnerStats:
    """Aggregated telemetry for one campaign."""

    jobs: int = 0
    #: worker processes started at the outset (0: cells ran in-process).
    workers: int = 0
    cells: int = 0
    completed: int = 0
    errors: int = 0
    #: workers replaced after a crash, a timeout kill or an idle death.
    worker_restarts: int = 0
    wall_s: float = 0.0
    #: total kernel events processed across every repetition.
    events: int = 0
    #: attempts killed for exceeding the per-cell wall budget.
    timeouts: int = 0
    #: cells re-dispatched after a timeout or crash.
    retried: int = 0
    #: the campaign was drained by SIGINT/SIGTERM before completing.
    interrupted: bool = False

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


class _Worker:
    """One worker process, the parent's end of its pipe, and its cell."""

    def __init__(
        self, fn: Callable[[Cell], object], siblings: Sequence[Connection],
    ) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.proc = multiprocessing.Process(
            target=_serve, args=(child, fn, [*siblings, self.conn]),
        )
        self.proc.start()
        child.close()  # the worker's death must close its pipe
        #: the cell this worker holds, and when it was handed over.
        self.cell: Optional[Cell] = None
        self.since = 0.0

    def give(self, cell: Cell) -> bool:
        """Hand ``cell`` over; ``False`` when the worker died while idle."""
        try:
            self.conn.send(cell)
        except OSError:
            return False
        self.cell, self.since = cell, time.monotonic()
        return True

    def stop(self, kill: bool = False) -> None:
        """Close the pipe (an idle worker exits on EOF) and reap the
        process; SIGKILL it first when ``kill``, or when it lingers (its
        exit joins any thread a cell left running)."""
        if kill:
            self.proc.kill()
        self.conn.close()
        self.proc.join(timeout=5)
        if self.proc.exitcode is None:
            self.proc.kill()
            self.proc.join()


def _execute_workers(
    cells: List[Cell],
    jobs: int,
    fn: Callable[[Cell], object],
    cost: Callable[[Cell], int],
    stats: RunnerStats,
    on_cell: Callable[[str, Cell, object, dict], None],
    ledger: RunLedger,
    control: ShutdownControl,
    policy: ResiliencePolicy,
    campaign_seed: int = 0,
) -> bool:
    """Drive ``cells`` over ``jobs`` worker processes, one cell each.

    Cells go out biggest first by ``cost`` (ties in grid order). A
    worker that dies holding a cell charges it a crash, and a cell past
    ``policy.cell_timeout_s`` since its dispatch has its worker killed
    and is charged a timeout. Either loss replaces that one worker and
    retries the cell — a crash at once, a timeout after its seeded
    backoff — until its ``policy.max_attempts``-th loss quarantines it
    as an error. Every attempt opens and closes as a ``ledger`` record,
    and the parent stamps its heartbeat in the store at most every
    :data:`HEARTBEAT_S`. ``control`` drain requests stop dispatch and
    let running cells finish and commit (no timeout is enforced while
    draining); a hard cancel kills every worker. Returns ``True`` when
    the grid was interrupted before completion.
    """
    pending = sorted(cells, key=cost, reverse=True)  # stable: grid order
    not_before: Dict[Cell, float] = {}  # a timed-out cell's backoff
    losses: Dict[Cell, int] = {}
    workers: List[_Worker] = []

    def respawn(i: int) -> None:
        workers[i].stop(kill=True)
        workers[i] = _Worker(
            fn, [w.conn for j, w in enumerate(workers) if j != i]
        )
        stats.worker_restarts += 1

    def lose(i: int, state: str, now: float) -> None:
        cell, wall = workers[i].cell, now - workers[i].since
        respawn(i)
        count = losses[cell] = losses.get(cell, 0) + 1
        if state == "timeout":
            stats.timeouts += 1
            budget = policy.cell_timeout_s
            ledger.attempt_timeout(cell, budget)
            error = (
                f"cell timed out ({count} attempt(s) over a {budget:.1f}s "
                "wall budget); quarantined as a poison cell"
            )
            pause = min(policy.backoff_s(cell, count, campaign_seed), 30.0)
        else:
            ledger.store.finish_attempt(
                *cell, "crashed",
                error="worker process died while running this cell",
            )
            error = (
                "worker process crashed while running this repetition "
                f"({count} attempt(s))"
            )
            pause = 0.0
        if count >= policy.max_attempts:
            on_cell("error", cell, error, {"wall_s": wall, "worker": None})
            return
        stats.retried += 1
        ledger.cell_retried(cell, count + 1, pause)
        not_before[cell] = now + pause
        pending.append(cell)

    def dispatch() -> None:
        now = time.monotonic()
        for i in range(len(workers)):
            while workers[i].cell is None:
                cell = next(
                    (c for c in pending if not_before.get(c, 0.0) <= now),
                    None,
                )
                if cell is None:
                    return
                if not workers[i].give(cell):
                    respawn(i)  # died while idle: no attempt charged
                    continue
                pending.remove(cell)
                ledger.attempt_started(cell, worker=workers[i].proc.pid)

    for _ in range(min(jobs, len(pending))):
        workers.append(_Worker(fn, [w.conn for w in workers]))
    stats.workers = len(workers)
    rows: List[Tuple[str, Cell, object, dict]] = []
    beat = float("-inf")
    try:
        while True:
            if not (control.draining or control.hard):
                dispatch()
            for row in rows:  # after the dispatch: no worker waits on a commit
                on_cell(*row)
            held = [w.cell for w in workers if w.cell is not None]
            if control.hard:
                for cell in held:
                    ledger.store.finish_attempt(
                        *cell, "interrupted", error="hard-cancelled"
                    )
                return True
            if not held and (control.draining or not pending):
                return control.draining
            ready = set(wait([w.conn for w in workers], policy.poll_s))
            now = time.monotonic()
            if now - beat >= HEARTBEAT_S:
                ledger.store.set_heartbeat()  # running cells' last-seen time
                beat = now
            rows = []
            for i, w in enumerate(workers):
                if w.conn in ready:
                    try:
                        rows.append(w.conn.recv())
                    except (EOFError, OSError):
                        if w.cell is None:
                            respawn(i)  # died while idle: nothing lost
                        else:
                            lose(i, "crashed", now)
                    else:
                        w.cell = None
                elif (
                    w.cell is not None
                    and policy.cell_timeout_s is not None
                    and not control.draining
                    and now - w.since > policy.cell_timeout_s
                ):
                    lose(i, "timeout", now)
    finally:
        for w in workers:
            w.stop(kill=w.cell is not None)


def _execute(
    fn: Callable[[Cell], object],
    cells: List[Cell],
    jobs: int,
    cost: Callable[[Cell], int],
    on_cell: Callable[[str, Cell, object, dict], None],
    ledger: RunLedger,
    policy: ResiliencePolicy,
    stats: RunnerStats,
    campaign_seed: int = 0,
) -> bool:
    """Run ``fn`` over ``cells``, reporting every outcome to ``on_cell``.

    The one executor behind :func:`run_campaign` and :func:`run_grid`:
    in this process when ``jobs`` is 1 or at most one cell is left and
    no wall budget is set, otherwise on :func:`_execute_workers`.
    Returns ``True`` when SIGINT/SIGTERM interrupted the grid.
    """
    # a wall budget needs a worker process it can kill
    in_process = policy.cell_timeout_s is None and (
        jobs <= 1 or len(cells) <= 1
    )
    # in-process, the second signal must preempt the running cell, so it
    # raises; a worker parent polls the flags instead, because a raise
    # could land between a dispatch and its attempt record.
    control = ShutdownControl(raise_on_hard=in_process)
    control.install()
    try:
        if not in_process:
            return _execute_workers(
                cells, jobs, fn, cost, stats, on_cell,
                ledger=ledger, control=control, policy=policy,
                campaign_seed=campaign_seed,
            )
        for cell in cells:
            if control.draining or control.hard:
                return True
            ledger.attempt_started(cell, worker=os.getpid())
            try:
                row = _run_cell(fn, cell)
            except KeyboardInterrupt:
                # hard cancel mid-cell: the cell is lost (a campaign
                # re-runs it on resume), but nothing partial was written.
                ledger.store.finish_attempt(
                    *cell, "interrupted", error="hard-cancelled mid-cell"
                )
                return True
            on_cell(*row)
        return False
    except KeyboardInterrupt:
        # a hard cancel landing between cells (or inside a ledger/store
        # call): transactions keep the store consistent either way.
        return True
    finally:
        control.restore()


def run_campaign(
    experiments: Sequence[int] = (1, 2, 3, 4),
    task_counts: Sequence[int] = PAPER_TASK_COUNTS,
    reps: int = 5,
    campaign_seed: int = 0,
    resource_pool: Optional[Sequence[str]] = None,
    verbose: bool = False,
    jobs: int = 1,
    collect_digests: bool = False,
    on_progress: Optional[Callable[[CellProgress], None]] = None,
    ledger: Optional[RunLedger] = None,
    store=None,
    resume: bool = False,
    resilience: Optional[ResiliencePolicy] = None,
    run_fn: Optional[Callable[..., RunResult]] = None,
    stats: Optional[RunnerStats] = None,
) -> CampaignResult:
    """Run the experiment grid; returns every repetition in grid order.

    One executor for every ``jobs``: each cell of the
    (experiment, size, rep) grid is dispatched, run, and then committed or
    quarantined the same way, and only *where* it runs differs — in this
    process, or on ``jobs`` worker processes (0 = one per
    usable CPU). See the module docstring for how the executor chooses.
    Each repetition is seeded from ``(campaign_seed, exp_id, n_tasks,
    rep)`` alone, so every ``jobs`` returns identical results. A cell
    that raises, crashes its worker, or exceeds its wall budget becomes a
    :class:`CellError` in ``result.errors``; the campaign goes on.

    ``on_progress`` receives one :class:`CellProgress` per completed
    repetition (coordinates, wall cost, error status). The campaign
    records into a :class:`repro.experiments.store.CampaignStore` —
    ``store`` when given, which must then hold no earlier campaign
    unless resuming
    (:class:`~repro.experiments.resilience.StoreInUseError`), and a
    private in-memory store otherwise — through a
    :class:`repro.experiments.ledger.RunLedger` over it: ``ledger``
    when given (it must record into ``store``), and a plain one
    otherwise. The store's campaign log receives every event, every
    attempt of every cell included; each repetition's run (or
    :class:`CellError`) is stored as it completes, in one transaction
    with the ``cell`` record that closes its attempt. This process alone
    writes, so a concurrent reader (``repro tail``) and a post-crash
    forensic pass both see exactly the completed prefix, and never a
    stored run whose cell still reads pending. The returned campaign is
    assembled from the cells' own results, not read back from the store.

    ``resume=True`` (requires ``store``) continues a half-finished
    campaign: the stored config is verified against the requested one
    (:class:`~repro.experiments.resilience.IncompatibleResumeError` on
    mismatch), committed cells are skipped, the attempts a dead run left
    open are closed ``reclaimed``, and only the remainder runs —
    per-cell seeding makes the resumed store byte-identical (by campaign
    fingerprint digest) to an uninterrupted run. ``resilience`` is a
    :class:`~repro.experiments.resilience.ResiliencePolicy` (per-cell
    wall budgets, retry budgets, ``retry_errors``). SIGINT/SIGTERM drain
    the in-flight cells and raise
    :class:`~repro.experiments.resilience.CampaignInterrupted` with the
    store marked cleanly interrupted; a second signal hard-cancels.

    ``run_fn`` replaces the per-cell execution function, called as
    ``run_fn(cell, campaign_seed, resource_pool, collect_digests)``; it
    must be module-level so a worker can unpickle it (the containment
    tests inject failures with it). ``stats``, when given, is filled
    with aggregated runner telemetry.
    """
    if store is None:
        if resume:
            raise ValueError("resume=True requires a store")
        with CampaignStore(":memory:") as private:
            return run_campaign(
                experiments, task_counts, reps, campaign_seed, resource_pool,
                verbose, jobs, collect_digests, on_progress, ledger,
                store=private, resilience=resilience, run_fn=run_fn,
                stats=stats,
            )
    ledger = ledger or RunLedger(store)
    if ledger.store is not store:
        raise ValueError("the ledger must record into the campaign's store")
    t0 = time.perf_counter()
    jobs = resolve_jobs(jobs)
    experiments = list(experiments)
    task_counts = list(task_counts)
    grid: List[Cell] = [
        (exp_id, n_tasks, rep)
        for exp_id in experiments
        for n_tasks in task_counts
        for rep in range(reps)
    ]
    stats = stats if stats is not None else RunnerStats()
    stats.jobs = jobs
    stats.cells = len(grid)
    policy = resilience if resilience is not None else ResiliencePolicy()

    meta = campaign_meta(
        experiments=experiments, task_counts=task_counts, reps=reps,
        campaign_seed=campaign_seed, resource_pool=resource_pool,
    )
    if resume:
        plan = prepare_resume(
            store, meta, grid, retry_errors=policy.retry_errors
        )
        remaining = plan.remaining
    else:
        check_fresh(store)
        plan = None
        remaining = list(grid)
    done_offset = len(grid) - len(remaining)
    log.info(
        "campaign: %d cells (%d to run), seed=%d",
        len(grid), len(remaining), campaign_seed,
    )
    store.set_campaign_meta(meta)
    ledger.campaign_start(len(grid), meta)
    if plan is not None:
        ledger.campaign_resumed(
            committed=len(plan.committed),
            errors_skipped=len(plan.errors_skipped),
            errors_retried=len(plan.errors_retried),
            reclaimed=plan.reclaimed_leases,
            remaining=len(plan.remaining),
        )

    pool_arg = tuple(resource_pool) if resource_pool is not None else None
    fn = partial(
        run_fn or _default_run_cell, campaign_seed=campaign_seed,
        resource_pool=pool_arg, collect_digests=collect_digests,
    )
    results: Dict[Cell, RunResult] = {}
    errors: Dict[Cell, str] = {}
    def on_cell(status: str, cell: Cell, payload: object, cmeta: dict) -> None:
        run: Optional[RunResult] = None
        error: Optional[str] = None
        if status == "ok":
            run = payload  # type: ignore[assignment]
            results[cell] = run
            stats.completed += 1
            stats.events += getattr(payload, "events", 0)
        else:
            error = str(payload)
            errors[cell] = error
            stats.errors += 1
            log.warning("cell %s failed: %s", cell, error)
        progress = CellProgress(
            done=done_offset + len(results) + len(errors), total=len(grid),
            cell=cell, wall_s=float(cmeta.get("wall_s", 0.0)),
            error=error, ttc=run.ttc if run is not None else float("nan"),
        )
        # the run (or error) and the record that closes its attempt
        # commit together: no reader sees a stored run still pending
        with store.transaction():
            if run is not None:
                store.put_run(run)
            else:
                store.put_error(CellError(*cell, error=error))
            ledger.cell(progress, run=run, worker=cmeta.get("worker"))
        if verbose:
            exp_id, n_tasks, rep = cell
            outcome = (
                f"TTC={run.ttc:.0f}s Tw={run.tw:.0f}s "
                f"done={run.units_done}/{n_tasks}"
                if run is not None else f"ERROR {payload}"
            )
            print(f"{TABLE1[exp_id].label} n={n_tasks} rep={rep}: {outcome}")
        if on_progress is not None:
            on_progress(progress)

    interrupted = _execute(
        fn, remaining, jobs, cell_cost, on_cell, ledger, policy, stats,
        campaign_seed=campaign_seed,
    )
    stats.wall_s = time.perf_counter() - t0
    # Re-assemble in grid order: deterministic, independent of worker
    # completion order.
    out = CampaignResult(meta=meta)
    for cell in grid:
        if cell in results:
            out.add(results[cell])
        elif cell in errors:
            out.errors.append(CellError(*cell, error=errors[cell]))
    store.set_interrupted(interrupted)
    ledger.campaign_end(
        stats.completed, stats.errors, stats.wall_s, interrupted=interrupted,
    )
    if interrupted:
        stats.interrupted = True
        raise CampaignInterrupted(
            "campaign interrupted after "
            f"{done_offset + len(results) + len(errors)}/{len(grid)} "
            "cells; the store holds every committed cell",
            result=out,
        )
    log.info(
        "campaign done: %d ok, %d errors, %.1fs wall",
        stats.completed, stats.errors, stats.wall_s,
    )
    if resume:
        # previously committed cells live only in the store; return the
        # whole campaign in grid order, as an uninterrupted run would.
        return store.load_campaign()
    return out


class GridError(RuntimeError):
    """Cells of a :func:`run_grid` grid failed; ``errors`` names them."""

    def __init__(self, errors: List[CellError], total: int) -> None:
        self.errors = errors
        super().__init__(
            f"{len(errors)} of {total} cell(s) failed: " + "; ".join(
                f"({e.exp_id}, {e.n_tasks}, {e.rep}) {e.error}"
                for e in errors
            )
        )


def run_grid(
    fn: Callable[[Cell], object], cells: Sequence[Cell], jobs: int = 1,
) -> List:
    """Run ``fn`` on every cell; returns the results in ``cells`` order.

    ``fn`` is a picklable function of one cell (module-level, or a
    :func:`functools.partial` of one) whose result depends on the cell
    alone. Every cell is run as a campaign cell is, its attempts recorded
    in the log of a private in-memory store, on ``jobs`` workers (0 = one
    per usable CPU); results stay in memory. A
    cell that raises or crashes its worker stops no other;
    :class:`GridError` names every failed cell once the rest are done.
    SIGINT/SIGTERM drain the in-flight cells and raise
    :class:`~repro.experiments.resilience.CampaignInterrupted`.
    """
    cells = list(cells)
    results: Dict[Cell, object] = {}
    errors: Dict[Cell, str] = {}
    with CampaignStore(":memory:") as store:

        def on_cell(status: str, cell: Cell, payload: object, _) -> None:
            if status == "ok":
                results[cell] = payload
            else:
                errors[cell] = str(payload)
            store.finish_attempt(
                *cell, "committed" if status == "ok" else "failed",
                error=errors.get(cell),
            )

        interrupted = _execute(
            fn, cells, resolve_jobs(jobs), lambda cell: 1, on_cell,
            RunLedger(store), ResiliencePolicy(), RunnerStats(),
        )
    if interrupted:
        raise CampaignInterrupted(
            f"interrupted after {len(results) + len(errors)}/{len(cells)} "
            "cells"
        )
    if errors:
        raise GridError(
            [CellError(*c, error=errors[c]) for c in cells if c in errors],
            len(cells),
        )
    return [results[c] for c in cells]
