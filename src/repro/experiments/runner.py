"""Grid execution: one executor, with an in-process or a pool worker.

A Monte-Carlo grid is embarrassingly parallel: every cell seeds itself
from its own integer coordinates via ``np.random.SeedSequence`` and
runs in a fresh simulation. One executor (:func:`_execute`) runs a
picklable cell function over the grid, leases every cell through one
:class:`~repro.experiments.resilience.ExecutionSupervisor` over a
:class:`~repro.experiments.store.CampaignStore`, and handles
SIGINT/SIGTERM the same way whatever ``jobs`` is. Its two callers are
:func:`run_campaign` (the Table I grid, with resume and a ledger) and
:func:`run_grid` (the ablation studies and the calibration). Only
*where* a cell runs differs, and the executor picks that from what it
can observe:

* **In-process** when ``jobs`` resolves to 1 or at most one cell
  remains, and no per-cell wall budget is set. No pool is started, and
  a second signal preempts the running cell.
* **Worker pool** otherwise (:func:`_execute_chunks`). A wall budget
  needs a process it can kill, so ``cell_timeout_s`` sends even
  ``jobs=1`` to a one-worker pool.

Either way a cell runs through :func:`_run_chunk`, which turns an
exception into a :class:`~repro.experiments.campaign.CellError` for
that cell alone. One difference remains by design: an in-process cell
that kills its process (``os._exit``, segfault) takes the grid down
with it, and a campaign's ``--resume`` recovers it; a pool worker's
crash costs the cell only.

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
telemetry/fault/health digests, and the error and timeout paths — and
``tests/experiments/test_ablation_golden.py`` the same, bit for bit,
for every ablation study and the calibration.

Scheduling
----------
Cells are packed into chunks, biggest first, by the grid's cost
function (a campaign's :func:`cell_cost`: a cell's wall time grows
roughly linearly in ``n_tasks`` on top of a fixed
environment-construction overhead; every other grid's cells cost one
unit each). Big-first packing keeps the long
cells from landing at the tail of the schedule where they would leave
all other workers idle. Each chunk is one executor task, which
amortizes process-pool dispatch overhead for the many small cells. The
parent keeps at most one chunk per worker in flight, so a chunk it sees
running really is running and its wall budget starts when it does.

Crash containment
-----------------
A worker process dying (segfault, OOM kill) breaks the whole pool: all
in-flight futures raise :class:`BrokenProcessPool` and we cannot tell
which chunk was guilty. When the broken chunk was the only one in
flight and held one cell, the crash is that cell's. Otherwise every
cell of every broken chunk becomes a *suspect*: it is retried in a
fresh pool as a chunk of its own that runs with nothing else in
flight, so its next crash, if any, is unambiguous. A cell that crashes
``max_attempts`` times is recorded as a
:class:`~repro.experiments.campaign.CellError` instead of a result;
innocent cells complete normally, even one that was running beside the
crash. Ordinary exceptions inside a repetition never break the pool —
the worker catches them per cell and reports them as errors.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
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
    ExecutionSupervisor,
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


def plan_chunks(
    cells: Sequence[Cell], jobs: int, cost: Callable[[Cell], int],
) -> List[List[Cell]]:
    """Pack cells into chunks for dispatch, costliest cells first.

    The chunk size target is ``total_cost / (jobs * 4)`` (but at least
    one maximal cell), giving ~4 waves of chunks per worker: small
    enough for load balancing when cell costs are skewed, large enough
    that pool dispatch overhead stays negligible. Deterministic — no
    randomness, ties keep grid order (stable sort).
    """
    if not cells:
        return []
    jobs = max(1, jobs)
    costed = sorted(cells, key=cost, reverse=True)
    total = sum(cost(c) for c in cells)
    target = max(cost(costed[0]), total // (jobs * 4))
    chunks: List[List[Cell]] = []
    current: List[Cell] = []
    acc = 0
    for cell in costed:
        current.append(cell)
        acc += cost(cell)
        if acc >= target:
            chunks.append(current)
            current = []
            acc = 0
    if current:
        chunks.append(current)
    return chunks


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


def _run_chunk(
    fn: Callable[[Cell], object], chunk: Sequence[Cell],
) -> List[Tuple[str, Cell, object, dict]]:
    """Worker entry point: run ``fn`` on every cell of one chunk.

    Exceptions are contained per cell — one failing cell costs that
    cell, not the chunk and not the grid. Each row carries a meta dict
    with the cell's wall time and the worker's pid, feeding the run
    ledger and progress callbacks.
    """
    pid = os.getpid()
    out: List[Tuple[str, Cell, object, dict]] = []
    for cell in chunk:
        w0 = time.perf_counter()
        try:
            run = fn(cell)
            meta = {"wall_s": time.perf_counter() - w0, "worker": pid}
            out.append(("ok", cell, run, meta))
        except Exception as exc:  # noqa: BLE001 - containment boundary
            meta = {"wall_s": time.perf_counter() - w0, "worker": pid}
            out.append(("error", cell, f"{type(exc).__name__}: {exc}", meta))
    return out


# -- parent side ---------------------------------------------------------------


@dataclass
class RunnerStats:
    """Aggregated telemetry for one campaign."""

    jobs: int = 0
    chunks: int = 0
    cells: int = 0
    completed: int = 0
    errors: int = 0
    pool_restarts: int = 0
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


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """SIGKILL the pool's workers and reap the executor.

    ``shutdown(wait=True)`` would block on a hung worker, and because
    workers inherit the parent's benign :class:`ShutdownControl` handler
    a SIGTERM is shielded too — SIGKILL is the only reliable teardown.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        try:
            proc.kill()
        except Exception:  # noqa: BLE001 - already-dead race
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.join(timeout=5)
        except Exception:  # noqa: BLE001 - already-reaped race
            pass


def _execute_chunks(
    chunks: List[List[Cell]],
    jobs: int,
    fn: Callable[[Cell], object],
    stats: RunnerStats,
    on_cell: Callable[[str, Cell, object, dict], None],
    supervisor: ExecutionSupervisor,
    control: ShutdownControl,
    policy: ResiliencePolicy,
    campaign_seed: int = 0,
) -> bool:
    """Drive chunks to completion, surviving crashes, hangs, and signals.

    At most ``jobs`` chunks are in flight; the next is submitted when one
    finishes. A pool break is charged to a cell only when that cell was
    the one chunk in flight; otherwise the cells of every broken chunk
    become suspects and are retried one at a time with nothing else in
    flight. A cell charged ``policy.max_attempts`` crashes is quarantined
    as an error. When ``policy.cell_timeout_s`` is set,
    the parent polls in-flight chunks against a
    ``cell_timeout_s * len(chunk)`` wall budget; an overdue chunk's
    workers are killed, its cells retried under the same attempt budget
    (with seeded backoff), and innocent in-flight chunks are requeued
    without attempt penalty. ``control`` drain requests stop new
    dispatch and let running chunks finish; hard-cancel kills the pool.
    Returns ``True`` when the grid was interrupted before completion.
    """
    pending: List[List[Cell]] = [list(chunk) for chunk in chunks]
    suspects: set = set()  # cells of an ambiguous pool break
    solo_crashes: Dict[Cell, int] = {}
    cell_timeouts: Dict[Cell, int] = {}
    while pending:
        if control.draining or control.hard:
            # drain requested between pool generations: nothing new
            # starts; requeued cells' leases are already closed.
            return True
        broken: List[List[Cell]] = []
        requeue: List[List[Cell]] = []
        backoff = 0.0
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures: Dict = {}
            started: Dict = {}  # future -> monotonic time first seen running
            not_done: set = set()

            def top_up() -> None:
                # one chunk per worker: a future seen running really is
                # running, not queued behind a hung chunk. A suspect
                # runs alone, so a crash while it runs is its own.
                while pending and len(not_done) < workers and not (
                    broken or control.draining or control.hard
                ):
                    if not_done and not suspects.isdisjoint(
                        [pending[0][0]] + [futures[f][0] for f in not_done]
                    ):
                        return  # a suspect waits for, then holds, the pool
                    try:
                        fut = pool.submit(_run_chunk, fn, pending[0])
                    except BrokenProcessPool:
                        return  # the in-flight futures report the break
                    chunk = pending.pop(0)
                    for cell in chunk:
                        supervisor.begin(cell)
                    futures[fut] = chunk
                    not_done.add(fut)

            top_up()
            while not_done:
                done, not_done = wait(
                    not_done, timeout=policy.poll_s,
                    return_when=FIRST_COMPLETED,
                )
                top_up()  # before the commits, so no worker waits on them
                for fut in done:
                    chunk = futures[fut]
                    try:
                        rows = fut.result()
                    except BrokenProcessPool:
                        broken.append(chunk)
                        continue
                    for status, cell, payload, cmeta in rows:
                        on_cell(status, cell, payload, cmeta)
                if not not_done:
                    break
                now = time.monotonic()
                running = [f for f in not_done if f in started or f.running()]
                for fut in running:
                    started.setdefault(fut, now)
                supervisor.heartbeat(
                    [c for f in running for c in futures[f]]
                )
                if control.hard:
                    _kill_pool(pool)
                    for fut in not_done:
                        fut.cancel()
                        for cell in futures[fut]:
                            supervisor.close(
                                cell, "interrupted", "hard-cancelled"
                            )
                    return True
                if control.draining or policy.cell_timeout_s is None:
                    continue  # a drain lets running chunks finish and commit
                overdue = {
                    f for f in running
                    if now - started[f]
                    > policy.cell_timeout_s * len(futures[f])
                }
                if not overdue:
                    continue
                # one hung worker also wedges pool shutdown, so kill the
                # whole pool and sort guilty from innocent below.
                _kill_pool(pool)
                stats.pool_restarts += 1
                log.warning(
                    "%d chunk(s) exceeded the wall budget; killing the "
                    "pool and retrying",
                    len(overdue),
                )
                for fut in list(not_done):
                    fut.cancel()
                    chunk = futures[fut]
                    if fut in overdue:
                        budget = policy.cell_timeout_s * len(chunk)
                        for cell in chunk:
                            stats.timeouts += 1
                            count = cell_timeouts.get(cell, 0) + 1
                            cell_timeouts[cell] = count
                            supervisor.timeout(cell, budget)
                            if count >= policy.max_attempts:
                                on_cell(
                                    "error", cell,
                                    f"cell timed out ({count} attempt(s) "
                                    f"over a {budget:.1f}s wall budget); "
                                    "quarantined as a poison cell",
                                    {"wall_s": budget, "worker": None},
                                )
                            else:
                                stats.retried += 1
                                pause = policy.backoff_s(
                                    cell, count, campaign_seed
                                )
                                backoff = max(backoff, pause)
                                supervisor.retried(cell, pause)
                                requeue.append([cell])
                    else:
                        if fut.done() and not fut.cancelled():
                            # finished in the race window between the
                            # wait() and the teardown: keep the results.
                            try:
                                for status, cell, payload, cmeta in (
                                    fut.result()
                                ):
                                    on_cell(status, cell, payload, cmeta)
                                continue
                            except (BrokenProcessPool, CancelledError):
                                pass
                        # innocent bystanders of the teardown: requeue
                        # with no attempt penalty.
                        for cell in chunk:
                            supervisor.close(
                                cell, "reclaimed",
                                "collateral of a timeout teardown",
                            )
                        requeue.append(list(chunk))
                not_done = set()
        if broken:
            stats.pool_restarts += 1
            log.warning(
                "worker pool broke; retrying %d chunk(s) solo in a "
                "fresh pool",
                len(broken),
            )
            # the crash is a cell's own only if nothing ran beside it
            alone = len(broken) == 1 and len(broken[0]) == 1
            culprit = broken[0] if alone else None
            for chunk in broken:
                for cell in chunk:
                    supervisor.close(
                        cell, "crashed",
                        "worker pool broke while this cell was in flight",
                    )
                if chunk is culprit:
                    cell = chunk[0]
                    count = solo_crashes.get(cell, 0) + 1
                    solo_crashes[cell] = count
                    if count >= policy.max_attempts:
                        on_cell(
                            "error", cell,
                            "worker process crashed while running this "
                            f"repetition ({count} time(s) in isolation)",
                            {"wall_s": 0.0, "worker": None},
                        )
                    else:
                        stats.retried += 1
                        supervisor.retried(cell, 0.0)
                        requeue.append([cell])
                else:
                    # split: every cell runs alone, so the guilty one
                    # accrues crash attempts and no innocent one does.
                    for cell in chunk:
                        suspects.add(cell)
                        requeue.append([cell])
        # chunks never submitted keep their place ahead of the retries
        pending.extend(requeue)
        if control.draining or control.hard:
            return True
        if pending and backoff > 0:
            time.sleep(min(backoff, 30.0))
    return False


def _execute(
    fn: Callable[[Cell], object],
    cells: List[Cell],
    jobs: int,
    cost: Callable[[Cell], int],
    on_cell: Callable[[str, Cell, object, dict], None],
    supervisor: ExecutionSupervisor,
    policy: ResiliencePolicy,
    stats: RunnerStats,
    campaign_seed: int = 0,
) -> bool:
    """Run ``fn`` over ``cells``, reporting every outcome to ``on_cell``.

    The one executor behind :func:`run_campaign` and :func:`run_grid`:
    in this process when ``jobs`` is 1 or at most one cell is left and
    no wall budget is set, otherwise on the :func:`_execute_chunks`
    pool. Returns ``True`` when SIGINT/SIGTERM interrupted the grid.
    """
    # a wall budget needs a worker process it can kill
    in_process = policy.cell_timeout_s is None and (
        jobs <= 1 or len(cells) <= 1
    )
    # in-process, the second signal must preempt the running cell, so it
    # raises; a pool parent polls the flags instead, because a raise
    # could land inside pool bookkeeping and corrupt teardown.
    control = ShutdownControl(raise_on_hard=in_process)
    control.install()
    try:
        if not in_process:
            chunks = plan_chunks(cells, jobs, cost)
            stats.chunks = len(chunks)
            return _execute_chunks(
                chunks, jobs, fn, stats, on_cell,
                supervisor=supervisor, control=control, policy=policy,
                campaign_seed=campaign_seed,
            )
        stats.chunks = len(cells)
        for cell in cells:
            if control.draining or control.hard:
                return True
            supervisor.begin(cell, worker=os.getpid())
            try:
                rows = _run_chunk(fn, [cell])
            except KeyboardInterrupt:
                # hard cancel mid-cell: the cell is lost (a campaign
                # re-runs it on resume), but nothing partial was written.
                supervisor.close(
                    cell, "interrupted", "hard-cancelled mid-cell"
                )
                return True
            for row in rows:
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
    (experiment, size, rep) grid is leased, run, and then committed or
    quarantined the same way, and only *where* it runs differs — in this
    process, or on a pool of ``jobs`` worker processes (0 = one per
    usable CPU). See the module docstring for how the executor chooses.
    Each repetition is seeded from ``(campaign_seed, exp_id, n_tasks,
    rep)`` alone, so every ``jobs`` returns identical results. A cell
    that raises, crashes its worker, or exceeds its wall budget becomes a
    :class:`CellError` in ``result.errors``; the campaign goes on.

    ``on_progress`` receives one :class:`CellProgress` per completed
    repetition (coordinates, wall cost, error status). ``ledger`` (a
    :class:`repro.experiments.ledger.RunLedger`) appends the campaign's
    events to its store's campaign log. Every repetition (or :class:`CellError`) is
    recorded in a :class:`repro.experiments.store.CampaignStore` as it
    completes — one committed row per cell plus a lease/attempt history,
    written by this process alone, so a concurrent reader (``repro
    tail``) and a post-crash forensic pass both see exactly the
    completed prefix. That is ``store`` when given, which must then hold
    no earlier campaign unless resuming
    (:class:`~repro.experiments.resilience.StoreInUseError`), and a
    private in-memory store otherwise. The returned campaign is
    assembled from the cells' own results, not read back from the store.

    ``resume=True`` (requires ``store``) continues a half-finished
    campaign: the stored config is verified against the requested one
    (:class:`~repro.experiments.resilience.IncompatibleResumeError` on
    mismatch), committed cells are skipped, stale leases reclaimed, and
    only the remainder runs — per-cell seeding makes the resumed store
    byte-identical (by campaign fingerprint digest) to an uninterrupted
    run. ``resilience`` is a
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
    if ledger is not None:
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
    supervisor = ExecutionSupervisor(store=store, ledger=ledger, policy=policy)

    def on_cell(status: str, cell: Cell, payload: object, cmeta: dict) -> None:
        run: Optional[RunResult] = None
        error: Optional[str] = None
        if status == "ok":
            run = payload  # type: ignore[assignment]
            results[cell] = run
            stats.completed += 1
            stats.events += getattr(payload, "events", 0)
            supervisor.commit(cell, run, worker=cmeta.get("worker"))
        else:
            error = str(payload)
            errors[cell] = error
            stats.errors += 1
            log.warning("cell %s failed: %s", cell, error)
            supervisor.fail(cell, error)
        if verbose:
            exp_id, n_tasks, rep = cell
            outcome = (
                f"TTC={run.ttc:.0f}s Tw={run.tw:.0f}s "
                f"done={run.units_done}/{n_tasks}"
                if run is not None else f"ERROR {payload}"
            )
            print(f"{TABLE1[exp_id].label} n={n_tasks} rep={rep}: {outcome}")
        progress = CellProgress(
            done=done_offset + len(results) + len(errors), total=len(grid),
            cell=cell, wall_s=float(cmeta.get("wall_s", 0.0)),
            error=error, ttc=run.ttc if run is not None else float("nan"),
        )
        if ledger is not None:
            ledger.cell(progress, run=run, worker=cmeta.get("worker"))
        if on_progress is not None:
            on_progress(progress)

    interrupted = _execute(
        fn, remaining, jobs, cell_cost, on_cell, supervisor, policy, stats,
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
    if ledger is not None:
        ledger.campaign_end(
            stats.completed, stats.errors, stats.wall_s,
            interrupted=interrupted,
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
    alone. Every cell is leased in a private in-memory store and run as
    a campaign cell is, on ``jobs`` workers (0 = one per usable CPU). A
    cell that raises or crashes its worker stops no other;
    :class:`GridError` names every failed cell once the rest are done.
    SIGINT/SIGTERM drain the in-flight cells and raise
    :class:`~repro.experiments.resilience.CampaignInterrupted`.
    """
    cells = list(cells)
    results: Dict[Cell, object] = {}
    errors: Dict[Cell, str] = {}
    with CampaignStore(":memory:") as store:
        supervisor = ExecutionSupervisor(store)

        def on_cell(status: str, cell: Cell, payload: object, _) -> None:
            if status == "ok":
                results[cell] = payload
                supervisor.close(cell, "committed")
            else:
                errors[cell] = str(payload)
                supervisor.fail(cell, str(payload))

        interrupted = _execute(
            fn, cells, resolve_jobs(jobs), lambda cell: 1, on_cell,
            supervisor, ResiliencePolicy(), RunnerStats(),
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
