"""Parallel campaign execution across worker processes.

A Monte-Carlo campaign is embarrassingly parallel: every repetition of
every ``(experiment, n_tasks)`` cell derives its seeds independently
from ``(campaign_seed, exp_id, n_tasks, rep)`` via
``np.random.SeedSequence`` and runs in a fresh simulation. The runner
exploits that by fanning the grid out to a :class:`ProcessPoolExecutor`.

Determinism contract
--------------------
The parallel campaign is *bit-identical* to the serial one:

* Seeding depends only on the cell coordinates, never on execution
  order, worker identity, or wall-clock time.
* Workers return completed :class:`RunResult` values; the parent never
  mutates them.
* Results are re-ordered into grid order (experiments x task_counts x
  reps, exactly the serial loop nest) before the
  :class:`CampaignResult` is assembled, so downstream consumers see the
  same sequence regardless of which worker finished first.

``tests/experiments/test_runner.py`` asserts field-by-field equality of
serial and parallel campaigns — including the per-repetition
telemetry/fault/health digests — and CI re-checks it on every push.

Scheduling
----------
Cells are packed into chunks, biggest first (cost model: a cell's wall
time grows roughly linearly in ``n_tasks`` on top of a fixed
environment-construction overhead). Big-first packing keeps the long
cells from landing at the tail of the schedule where they would leave
all other workers idle. Each chunk is one executor task, which
amortizes process-pool dispatch overhead for the many small cells.

Crash containment
-----------------
A worker process dying (segfault, OOM kill) breaks the whole pool: all
in-flight futures raise :class:`BrokenProcessPool` and we cannot tell
which chunk was guilty. The runner then splits every unfinished chunk
into single-cell chunks and retries them in a fresh pool. A cell that
breaks a pool twice on its own is recorded as a
:class:`~repro.experiments.campaign.CellError` instead of a result;
innocent cells complete normally. Ordinary exceptions inside a
repetition never break the pool — the worker catches them per cell and
reports them as errors.
"""

from __future__ import annotations

import importlib
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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cluster.workload import stream_cache_stats
from ..skeleton import PAPER_TASK_COUNTS
from .campaign import (
    TABLE1,
    CampaignResult,
    CellError,
    CellProgress,
    RunResult,
    campaign_meta,
    run_single,
)
from .ledger import RunLedger

log = logging.getLogger(__name__)

#: One repetition's coordinates in the campaign grid.
Cell = Tuple[int, int, int]  # (exp_id, n_tasks, rep)

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


def plan_chunks(cells: Sequence[Cell], jobs: int) -> List[List[Cell]]:
    """Pack cells into chunks for dispatch, biggest cells first.

    The chunk size target is ``total_cost / (jobs * 4)`` (but at least
    one maximal cell), giving ~4 waves of chunks per worker: small
    enough for load balancing when cell costs are skewed, large enough
    that pool dispatch overhead stays negligible. Deterministic — no
    randomness, ties keep grid order (stable sort).
    """
    if not cells:
        return []
    jobs = max(1, jobs)
    costed = sorted(cells, key=cell_cost, reverse=True)
    total = sum(cell_cost(c) for c in cells)
    target = max(cell_cost(costed[0]), total // (jobs * 4))
    chunks: List[List[Cell]] = []
    current: List[Cell] = []
    acc = 0
    for cell in costed:
        current.append(cell)
        acc += cell_cost(cell)
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
    """Execute one repetition in the worker process."""
    exp_id, n_tasks, rep = cell
    return run_single(
        TABLE1[exp_id], n_tasks, rep,
        campaign_seed=campaign_seed,
        resource_pool=resource_pool,
        collect_digests=collect_digests,
    )


def _resolve_run_fn(path: Optional[str]):
    """Import a ``module:attr`` run function (test injection hook)."""
    if path is None:
        return _default_run_cell
    module_name, _, attr = path.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def _run_chunk(
    chunk: Sequence[Cell],
    campaign_seed: int,
    resource_pool: Optional[Tuple[str, ...]],
    collect_digests: bool,
    run_fn_path: Optional[str],
) -> List[Tuple[str, Cell, object, dict]]:
    """Worker entry point: run every cell of one chunk.

    Exceptions are contained per cell — one failing repetition costs
    that repetition, not the chunk and not the campaign. Each row
    carries a meta dict with the cell's wall time and the worker's pid,
    feeding the run ledger and progress callbacks.
    """
    run_fn = _resolve_run_fn(run_fn_path)
    pid = os.getpid()
    out: List[Tuple[str, Cell, object, dict]] = []
    for cell in chunk:
        w0 = time.perf_counter()
        try:
            run = run_fn(cell, campaign_seed, resource_pool, collect_digests)
            meta = {"wall_s": time.perf_counter() - w0, "worker": pid}
            out.append(("ok", cell, run, meta))
        except Exception as exc:  # noqa: BLE001 - containment boundary
            meta = {"wall_s": time.perf_counter() - w0, "worker": pid}
            out.append(("error", cell, f"{type(exc).__name__}: {exc}", meta))
    # Cumulative workload-stream cache counters of this worker process;
    # the parent keeps the latest snapshot per worker and sums them.
    cache = stream_cache_stats()
    for _, _, _, meta in out:
        meta["stream_cache"] = cache
    return out


# -- parent side ---------------------------------------------------------------


@dataclass
class RunnerStats:
    """Aggregated telemetry for one parallel campaign."""

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
    #: workload-stream cache counters summed across worker processes
    #: (hits, misses, extensions, fallbacks, streams, recorded_ops).
    stream_cache: Dict[str, int] = field(default_factory=dict)

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
    worker_args: Tuple,
    stats: RunnerStats,
    on_cell: Callable[[str, Cell, object, dict], None],
    supervisor=None,
    control=None,
    policy=None,
    campaign_seed: int = 0,
) -> bool:
    """Drive chunks to completion, surviving crashes, hangs, and signals.

    Chunks whose futures raise :class:`BrokenProcessPool` are split into
    single-cell chunks and retried in a fresh pool; a cell that breaks a
    pool ``policy.max_attempts`` times while running alone is quarantined
    as an error. When ``policy.cell_timeout_s`` is set, the parent polls
    in-flight chunks against a ``cell_timeout_s * len(chunk)`` wall
    budget; an overdue chunk's workers are killed, its cells retried
    under the same attempt budget (with seeded backoff), and innocent
    in-flight chunks are requeued without attempt penalty. ``control``
    drain requests stop new dispatch and let running chunks finish;
    hard-cancel kills the pool. Returns ``True`` when the campaign was
    interrupted before completion.
    """
    from .resilience import ExecutionSupervisor, ResiliencePolicy, ShutdownControl

    supervisor = supervisor if supervisor is not None else ExecutionSupervisor()
    policy = policy if policy is not None else supervisor.policy
    control = control if control is not None else ShutdownControl()

    pending: List[List[Cell]] = [list(chunk) for chunk in chunks]
    solo_crashes: Dict[Cell, int] = {}
    cell_timeouts: Dict[Cell, int] = {}
    draining = False
    while pending:
        if control.draining or control.hard:
            # drain requested between pool generations: nothing new
            # starts; requeued cells' leases are already closed.
            return True
        broken: List[List[Cell]] = []
        requeue: List[List[Cell]] = []
        backoff = 0.0
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending))
        ) as pool:
            futures: Dict = {}
            for chunk in pending:
                for cell in chunk:
                    supervisor.begin(cell)
                futures[pool.submit(_run_chunk, chunk, *worker_args)] = chunk
            pending = []
            started: Dict = {}  # future -> monotonic time first seen running
            not_done = set(futures)
            while not_done:
                done, not_done = wait(
                    not_done, timeout=policy.poll_s,
                    return_when=FIRST_COMPLETED,
                )
                for fut in done:
                    chunk = futures[fut]
                    try:
                        rows = fut.result()
                    except BrokenProcessPool:
                        broken.append(chunk)
                        continue
                    except CancelledError:
                        continue  # lease was closed where we cancelled
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
                if control.draining:
                    if not draining:
                        draining = True
                        for fut in list(not_done):
                            if fut not in started and fut.cancel():
                                not_done.discard(fut)
                                for cell in futures[fut]:
                                    supervisor.close(
                                        cell, "interrupted",
                                        "drained before start",
                                    )
                    continue  # let running chunks finish and commit
                if policy.cell_timeout_s is None:
                    continue
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
            for chunk in broken:
                for cell in chunk:
                    supervisor.close(
                        cell, "crashed",
                        "worker pool broke while this cell was in flight",
                    )
                if len(chunk) == 1:
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
                    # split: innocent cells complete solo, the guilty
                    # one starts accruing crash attempts.
                    for cell in chunk:
                        requeue.append([cell])
        pending = requeue
        if draining or control.draining or control.hard:
            return True
        if pending and backoff > 0:
            time.sleep(min(backoff, 30.0))
    return False


def run_parallel_campaign(
    experiments: Sequence[int] = (1, 2, 3, 4),
    task_counts: Sequence[int] = PAPER_TASK_COUNTS,
    reps: int = 5,
    campaign_seed: int = 0,
    resource_pool: Optional[Sequence[str]] = None,
    verbose: bool = False,
    jobs: int = 0,
    collect_digests: bool = False,
    on_progress: Optional[Callable[[CellProgress], None]] = None,
    run_fn: Optional[str] = None,
    stats: Optional[RunnerStats] = None,
    ledger: Optional[RunLedger] = None,
    store=None,
    resume: bool = False,
    resilience=None,
    control=None,
) -> CampaignResult:
    """Run the experiment grid on ``jobs`` worker processes.

    Produces a :class:`CampaignResult` whose ``runs`` are identical —
    field by field, in the same order — to the serial
    :func:`~repro.experiments.campaign.run_campaign`. Repetitions lost
    to worker crashes appear in ``result.errors`` instead of killing
    the campaign.

    ``on_progress`` receives one :class:`CellProgress` per completed
    repetition (coordinates, wall cost, error status). ``ledger``, when
    given, streams the campaign's NDJSON run ledger (see
    :mod:`repro.experiments.ledger`). ``store``, when given, is a
    :class:`repro.experiments.store.CampaignStore` the parent writes
    each completed repetition (or :class:`CellError`) into — workers
    return results over the pool and never touch the store, so it has
    exactly one writer; every cell commits individually, preserving
    crash containment (a dead worker or parent leaves only whole,
    committed rows). ``run_fn`` names a ``module:attr`` replacement for
    the per-cell execution function (used by the crash-containment
    tests). ``stats``, when given, is filled with aggregated runner
    telemetry.

    ``resume=True`` (requires ``store``) continues a half-finished
    campaign; ``resilience`` is a
    :class:`~repro.experiments.resilience.ResiliencePolicy` (per-cell
    wall budgets, retry budgets, ``retry_errors``); SIGINT/SIGTERM
    drain in-flight chunks and raise
    :class:`~repro.experiments.resilience.CampaignInterrupted` — see
    :func:`~repro.experiments.campaign.run_campaign` for the contract.
    """
    from .resilience import (
        CampaignInterrupted,
        ExecutionSupervisor,
        ResiliencePolicy,
        ShutdownControl,
        config_digest,
        prepare_resume,
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
        if store is None:
            raise ValueError("resume=True requires a store")
        plan = prepare_resume(
            store, meta, grid, retry_errors=policy.retry_errors
        )
        remaining = plan.remaining
    else:
        plan = None
        remaining = list(grid)
    done_offset = len(grid) - len(remaining)
    log.info(
        "parallel campaign: %d cells (%d to run) on %d worker(s), seed=%d",
        len(grid), len(remaining), jobs, campaign_seed,
    )
    if store is not None:
        store.set_campaign_meta(meta)
        store.set_config_digest(config_digest(meta))
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
    results: Dict[Cell, RunResult] = {}
    errors: Dict[Cell, str] = {}
    supervisor = ExecutionSupervisor(store=store, ledger=ledger, policy=policy)
    own_control = control is None
    if own_control:
        # parallel parent: poll the flags instead of raising — a raise
        # could land inside pool bookkeeping and corrupt the teardown.
        control = ShutdownControl(raise_on_hard=False)
    control.install()

    # Worker cache counters are cumulative per process: keep the latest
    # snapshot for each worker pid and sum across workers at the end.
    worker_cache: Dict[int, Dict[str, int]] = {}

    def on_cell(status: str, cell: Cell, payload: object, cmeta: dict) -> None:
        run: Optional[RunResult] = None
        error: Optional[str] = None
        snap = cmeta.get("stream_cache")
        worker = cmeta.get("worker")
        if snap is not None and worker is not None:
            worker_cache[worker] = snap
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
            if run is not None:
                print(
                    f"{TABLE1[exp_id].label} n={n_tasks} rep={rep}: "
                    f"TTC={run.ttc:.0f}s Tw={run.tw:.0f}s "
                    f"done={run.units_done}/{n_tasks}"
                )
            else:
                print(
                    f"{TABLE1[exp_id].label} n={n_tasks} rep={rep}: "
                    f"ERROR {payload}"
                )
        progress = CellProgress(
            done=done_offset + len(results) + len(errors), total=len(grid),
            cell=cell, wall_s=float(cmeta.get("wall_s", 0.0)),
            error=error, ttc=run.ttc if run is not None else float("nan"),
        )
        if ledger is not None:
            ledger.cell(progress, run=run, worker=cmeta.get("worker"))
        if on_progress is not None:
            on_progress(progress)

    interrupted = False
    try:
        if jobs <= 1 or len(remaining) <= 1:
            # Single worker: run in-process. Same code path as the serial
            # campaign, same results; no pool overhead, and it keeps
            # ``--jobs 1`` usable on machines where fork is unavailable.
            for cell in remaining:
                if control.draining or control.hard:
                    interrupted = True
                    break
                supervisor.begin(cell, worker=os.getpid())
                try:
                    for status, c, payload, cmeta in _run_chunk(
                        [cell], campaign_seed, pool_arg, collect_digests,
                        run_fn,
                    ):
                        on_cell(status, c, payload, cmeta)
                except KeyboardInterrupt:
                    supervisor.close(
                        cell, "interrupted", "hard-cancelled mid-cell"
                    )
                    interrupted = True
                    break
            stats.chunks = len(remaining)
        else:
            chunks = plan_chunks(remaining, jobs)
            stats.chunks = len(chunks)
            interrupted = _execute_chunks(
                chunks, jobs,
                (campaign_seed, pool_arg, collect_digests, run_fn),
                stats, on_cell,
                supervisor=supervisor, control=control, policy=policy,
                campaign_seed=campaign_seed,
            )
    except KeyboardInterrupt:
        interrupted = True
    finally:
        control.restore()

    stats.wall_s = time.perf_counter() - t0
    agg: Dict[str, int] = {}
    for snap in worker_cache.values():
        for k, v in snap.items():
            agg[k] = agg.get(k, 0) + int(v)
    stats.stream_cache = agg
    if interrupted:
        stats.interrupted = True
        if store is not None:
            store.set_interrupted(True)
        if ledger is not None:
            ledger.campaign_end(
                stats.completed, stats.errors, stats.wall_s,
                interrupted=True,
            )
        partial = CampaignResult(meta=meta)
        for cell in grid:
            if cell in results:
                partial.add(results[cell])
            elif cell in errors:
                partial.errors.append(CellError(*cell, error=errors[cell]))
        raise CampaignInterrupted(
            "campaign interrupted after "
            f"{done_offset + len(results) + len(errors)}/{len(grid)} "
            "cells; the store holds every committed cell",
            result=partial,
        )

    # Re-assemble in grid order: deterministic, independent of worker
    # completion order.
    session = set(remaining)
    out = CampaignResult(meta=meta)
    for cell in grid:
        if cell in results:
            out.add(results[cell])
        elif cell in errors:
            out.errors.append(CellError(*cell, error=errors[cell]))
        elif cell in session:  # pragma: no cover - defensive; every
            # dispatched cell resolves above
            out.errors.append(CellError(*cell, error="repetition lost"))
    if store is not None:
        store.set_interrupted(False)
    if ledger is not None:
        ledger.campaign_end(stats.completed, stats.errors, stats.wall_s)
    log.info(
        "campaign done: %d ok, %d errors, %.1fs wall",
        stats.completed, stats.errors, stats.wall_s,
    )
    if resume and store is not None:
        # previously committed cells live only in the store; return the
        # whole campaign in grid order, as an uninterrupted run would.
        return store.load_campaign()
    return out


def parallel_map(
    fn: Callable,
    items: Sequence,
    jobs: int = 1,
) -> List:
    """Order-preserving process-parallel map for campaign-style drivers.

    ``fn`` must be a module-level (picklable) callable and every item's
    result must be independent of the others — true for the ablation and
    calibration drivers, whose samples are seeded per item. Falls back
    to a plain in-process loop when ``jobs`` resolves to one worker or
    there is at most one item, so callers need no single-CPU special
    case. Unlike the campaign runner this helper does not survive
    worker crashes; a crash propagates as :class:`BrokenProcessPool`.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        futures = [pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]
