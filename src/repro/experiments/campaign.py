"""The four experiments of Table I, run as Monte-Carlo campaigns.

Each experiment couples one execution strategy with nine bag-of-task
skeleton applications (8..2048 single-core tasks, uniform 15 min or
truncated-Gaussian durations). A campaign runs every (experiment, size)
cell for several repetitions; each repetition gets a fresh simulated
testbed, an independent seed, a randomized warm-up offset, and — as in
the paper — a randomized choice/order of target resources.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import Binding, PlannerConfig
from ..skeleton import PAPER_TASK_COUNTS, SkeletonAPI, paper_skeleton
from ..telemetry.causality import attribute_report
from .environment import build_environment, draw_observed

log = logging.getLogger(__name__)


@contextmanager
def _gc_paused():
    """Suspend the cyclic garbage collector for one repetition.

    A repetition allocates hundreds of thousands of short-lived tracked
    objects (events, trace records, state tuples); with the default
    thresholds the gen-2 collector fires mid-simulation and costs more
    than the entire attribution sweep. Pausing for the bounded lifetime
    of one repetition moves that work to the natural boundary between
    repetitions. Reentrant (the inner pause is a no-op), and the prior
    collector state is always restored.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass(frozen=True)
class ExperimentSpec:
    """One row family of Table I."""

    exp_id: int
    gaussian: bool          # task-duration distribution
    binding: Binding
    unit_scheduler: str
    n_pilots: int

    @property
    def label(self) -> str:
        dist = "Gaussian" if self.gaussian else "Uniform"
        b = "Late" if self.binding is Binding.LATE else "Early"
        return f"Exp.{self.exp_id} ({b} {dist} {self.n_pilots} pilot(s))"


#: Table I. Experiments 1-2: early binding, direct scheduler, one pilot
#: sized to run all tasks concurrently. Experiments 3-4: late binding,
#: backfill scheduler, three pilots of #tasks/3 cores each.
TABLE1: Dict[int, ExperimentSpec] = {
    1: ExperimentSpec(1, gaussian=False, binding=Binding.EARLY,
                      unit_scheduler="direct", n_pilots=1),
    2: ExperimentSpec(2, gaussian=True, binding=Binding.EARLY,
                      unit_scheduler="direct", n_pilots=1),
    3: ExperimentSpec(3, gaussian=False, binding=Binding.LATE,
                      unit_scheduler="backfill", n_pilots=3),
    4: ExperimentSpec(4, gaussian=True, binding=Binding.LATE,
                      unit_scheduler="backfill", n_pilots=3),
}


@dataclass(frozen=True)
class RunResult:
    """The measurements of one repetition."""

    exp_id: int
    n_tasks: int
    rep: int
    resources: Tuple[str, ...]
    ttc: float
    tw: float
    tw_last: float
    tx: float
    ts: float
    trp: float
    pilot_waits: Tuple[float, ...]
    units_done: int
    restarts: int
    #: kernel events processed by this repetition's simulation, which
    #: holds only the resources the repetition submits to.
    events: int = 0
    #: SHA-256 over the repetition's telemetry/fault/health digests when
    #: the run was executed with ``collect_digests=True``; "" otherwise.
    #: Like ``events``, it covers only the observed resources.
    digest: str = ""
    #: exact partition of TTC by causal component, in
    #: :data:`repro.telemetry.causality.COMPONENTS` order; the values
    #: sum to ``ttc`` within 1e-9 by construction. Empty tuple for
    #: campaign files written before the attribution engine existed.
    attribution: Tuple[Tuple[str, float], ...] = ()
    #: SHA-256 of the run's canonical attribution + critical path —
    #: byte-identical across serial and parallel campaigns of one seed.
    attribution_digest: str = ""

    @property
    def succeeded(self) -> bool:
        return self.units_done == self.n_tasks


@dataclass(frozen=True)
class CellProgress:
    """One completed repetition, as delivered to ``on_progress``.

    Replaces the old bare ``(done, total)`` callback arguments: consumers
    see *which* cell finished, what it cost in wall time, and whether it
    errored — enough to drive ETAs, ledgers, and live anomaly flags.
    """

    done: int
    total: int
    cell: Tuple[int, int, int]        # (exp_id, n_tasks, rep)
    wall_s: float
    error: Optional[str] = None       # CellError message; None on success
    ttc: float = float("nan")

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class CellError:
    """A repetition that did not produce a result (worker crash, bug)."""

    exp_id: int
    n_tasks: int
    rep: int
    error: str


@dataclass
class CampaignResult:
    """All repetitions of a campaign, with aggregation helpers.

    Cell lookups go through a ``(exp_id, n_tasks)`` index built lazily
    and invalidated whenever ``runs`` changes length, so repeated
    :meth:`aggregate`/:meth:`series` calls on a large campaign cost
    O(cell) instead of O(runs) each.
    """

    runs: List[RunResult] = field(default_factory=list)
    #: repetitions lost to worker crashes or per-cell exceptions; a
    #: healthy campaign has none.
    errors: List[CellError] = field(default_factory=list)
    #: how the campaign was produced (seed, grid, reps) — persisted by
    #: :mod:`repro.experiments.io` so post-hoc tools (``repro report``)
    #: can re-derive any single repetition deterministically.
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._index: Dict[Tuple[int, int], List[RunResult]] = {}
        self._indexed_len = -1

    def add(self, run: RunResult) -> None:
        """Append one repetition (keeps the cell index incremental)."""
        self.runs.append(run)
        if self._indexed_len == len(self.runs) - 1:
            self._index.setdefault((run.exp_id, run.n_tasks), []).append(run)
            self._indexed_len = len(self.runs)

    def _cell_index(self) -> Dict[Tuple[int, int], List[RunResult]]:
        # Length-check invalidation: direct `runs` mutation (the public
        # dataclass field) is detected and triggers a rebuild.
        if self._indexed_len != len(self.runs):
            index: Dict[Tuple[int, int], List[RunResult]] = {}
            for r in self.runs:
                index.setdefault((r.exp_id, r.n_tasks), []).append(r)
            self._index = index
            self._indexed_len = len(self.runs)
        return self._index

    def cell(self, exp_id: int, n_tasks: int) -> List[RunResult]:
        return list(self._cell_index().get((exp_id, n_tasks), ()))

    def aggregate(
        self, exp_id: int, n_tasks: int, attr: str = "ttc"
    ) -> Tuple[float, float]:
        """(mean, std) of one attribute over a cell's repetitions."""
        values = [
            getattr(r, attr)
            for r in self._cell_index().get((exp_id, n_tasks), ())
        ]
        if not values:
            return (float("nan"), float("nan"))
        arr = np.asarray(values, dtype=float)
        return float(arr.mean()), float(arr.std(ddof=0))

    def series(
        self, exp_id: int, attr: str = "ttc",
        task_counts: Sequence[int] = PAPER_TASK_COUNTS,
    ) -> List[Tuple[int, float, float]]:
        """[(n_tasks, mean, std), ...] for one experiment."""
        return [
            (n, *self.aggregate(exp_id, n, attr)) for n in task_counts
        ]


def run_cell_report(
    spec: ExperimentSpec,
    n_tasks: int,
    rep: int = 0,
    campaign_seed: int = 0,
    resource_pool: Optional[Sequence[str]] = None,
    min_warmup_s: float = 2 * 3600.0,
    max_warmup_s: float = 12 * 3600.0,
    telemetry: bool = False,
):
    """Execute one repetition; returns ``(report, env, resources)``.

    The deterministic heart of :func:`run_single`, exposed separately so
    post-hoc tools (``repro report``) can *replay* any repetition of a
    saved campaign from its coordinates and recover the full
    :class:`~repro.core.execution_manager.ExecutionReport` — critical
    path included — without the campaign having stored it.

    The environment holds only the chosen resources (see
    :func:`~repro.experiments.environment.draw_observed`); an unknown
    ``resource_pool`` name or a pool smaller than the experiment's
    pilot count raises :class:`ValueError` before any simulation.
    """
    ss = np.random.SeedSequence(
        entropy=campaign_seed, spawn_key=(spec.exp_id, n_tasks, rep)
    )
    seeds = ss.generate_state(3)
    rng = np.random.default_rng(seeds[0])
    # Randomized submission instant and resource choice/order (paper
    # §IV.A), drawn first so only the chosen resources are simulated.
    offset, chosen, observed = draw_observed(
        rng, spec.n_pilots, (min_warmup_s, max_warmup_s), resource_pool,
    )

    with _gc_paused():
        env = build_environment(
            seed=int(seeds[1]), resources=observed, telemetry=telemetry,
        )
        env.warm_up(offset)

        skeleton = SkeletonAPI(
            paper_skeleton(n_tasks, gaussian=spec.gaussian), seed=int(seeds[2])
        )
        config = PlannerConfig(
            binding=spec.binding,
            unit_scheduler=spec.unit_scheduler,
            n_pilots=spec.n_pilots,
            resources=chosen,
        )
        report = env.execution_manager.execute(skeleton, config)
    return report, env, chosen


def run_single(
    spec: ExperimentSpec,
    n_tasks: int,
    rep: int = 0,
    campaign_seed: int = 0,
    resource_pool: Optional[Sequence[str]] = None,
    min_warmup_s: float = 2 * 3600.0,
    max_warmup_s: float = 12 * 3600.0,
    collect_digests: bool = False,
) -> RunResult:
    """Execute one repetition of one (experiment, size) cell.

    The repetition's seed, warm-up offset, target resources, and
    materialized task durations all derive deterministically from
    ``(campaign_seed, exp_id, n_tasks, rep)``.

    ``collect_digests`` enables the telemetry hub for the repetition and
    stores a SHA-256 digest of the telemetry/fault/health logs in the
    result — the cheap, order-independent way to check that two
    executions of the same cell (e.g. serial vs. parallel campaign)
    observed the identical simulated history.
    """
    with _gc_paused():
        report, env, chosen = run_cell_report(
            spec, n_tasks, rep,
            campaign_seed=campaign_seed,
            resource_pool=resource_pool,
            min_warmup_s=min_warmup_s,
            max_warmup_s=max_warmup_s,
            telemetry=collect_digests,
        )
        d = report.decomposition
        # Causal attribution is derived from the entity histories alone,
        # so it is available (and digest-stable) with or without
        # telemetry.
        att = attribute_report(report)
    log.debug(
        "cell exp=%d n=%d rep=%d: %s",
        spec.exp_id, n_tasks, rep, att.summary(),
    )
    digest = ""
    if collect_digests:
        payload = {
            "telemetry": env.sim.telemetry.digest(),
            "faults": (
                report.fault_log.digest()
                if report.fault_log is not None else None
            ),
            "health": (
                report.health_log.digest()
                if report.health_log is not None else None
            ),
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
    return RunResult(
        exp_id=spec.exp_id,
        n_tasks=n_tasks,
        rep=rep,
        resources=chosen,
        ttc=d.ttc,
        tw=d.tw,
        tw_last=d.tw_last,
        tx=d.tx,
        ts=d.ts,
        trp=d.trp,
        pilot_waits=d.pilot_waits,
        units_done=d.units_done,
        restarts=d.restarts,
        events=int(env.sim.events_processed),
        digest=digest,
        attribution=att.components,
        attribution_digest=att.digest(),
    )


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
    ledger=None,
    store=None,
    resume: bool = False,
    resilience=None,
    control=None,
) -> CampaignResult:
    """Run the full experiment grid; returns all repetitions.

    ``jobs`` fans the (experiment, size, rep) grid out to that many
    worker processes (0 = one per usable CPU). Each repetition is seeded
    independently from ``(campaign_seed, exp_id, n_tasks, rep)``, so the
    parallel campaign produces results identical to the serial one —
    see :mod:`repro.experiments.runner` for the determinism contract.

    ``on_progress`` receives one :class:`CellProgress` per completed
    repetition; ``ledger`` (a :class:`repro.experiments.ledger.RunLedger`)
    streams the campaign's NDJSON run ledger in both serial and
    parallel modes. ``store`` (a
    :class:`repro.experiments.store.CampaignStore`) persists each
    repetition as it completes — one committed row per cell plus a
    lease/attempt history, so a concurrent reader (``repro tail``) and
    a post-crash forensic pass both see exactly the completed prefix.

    ``resume=True`` (requires ``store``) continues a half-finished
    campaign: the stored config is verified against the requested one
    (:class:`~repro.experiments.resilience.IncompatibleResumeError` on
    mismatch), committed cells are skipped, stale leases reclaimed, and
    only the remainder runs — per-cell seeding makes the resumed store
    byte-identical (by campaign fingerprint digest) to an uninterrupted
    run. ``resilience`` is a
    :class:`~repro.experiments.resilience.ResiliencePolicy` (timeouts,
    retry budgets, ``retry_errors``). SIGINT/SIGTERM drain the in-flight
    cell and raise
    :class:`~repro.experiments.resilience.CampaignInterrupted` with the
    store marked cleanly interrupted; a second signal hard-cancels.
    """
    if jobs != 1:
        from .runner import run_parallel_campaign

        return run_parallel_campaign(
            experiments=experiments,
            task_counts=task_counts,
            reps=reps,
            campaign_seed=campaign_seed,
            resource_pool=resource_pool,
            verbose=verbose,
            jobs=jobs,
            collect_digests=collect_digests,
            on_progress=on_progress,
            ledger=ledger,
            store=store,
            resume=resume,
            resilience=resilience,
            control=control,
        )
    from .resilience import (
        CampaignInterrupted,
        ExecutionSupervisor,
        ResiliencePolicy,
        ShutdownControl,
        config_digest,
        prepare_resume,
    )

    policy = resilience if resilience is not None else ResiliencePolicy()
    meta = campaign_meta(
        experiments=experiments, task_counts=task_counts, reps=reps,
        campaign_seed=campaign_seed, resource_pool=resource_pool,
    )
    grid = [
        (exp_id, n_tasks, rep)
        for exp_id in experiments
        for n_tasks in task_counts
        for rep in range(reps)
    ]
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

    result = CampaignResult(meta=meta)
    total = len(grid)
    done_offset = total - len(remaining)
    log.info(
        "serial campaign: %d cells (%d to run), seed=%d",
        total, len(remaining), campaign_seed,
    )
    campaign_w0 = perf_counter()
    if store is not None:
        store.set_campaign_meta(meta)
        store.set_config_digest(config_digest(meta))
    if ledger is not None:
        ledger.campaign_start(total, meta)
        if plan is not None:
            ledger.campaign_resumed(
                committed=len(plan.committed),
                errors_skipped=len(plan.errors_skipped),
                errors_retried=len(plan.errors_retried),
                reclaimed=plan.reclaimed_leases,
                remaining=len(plan.remaining),
            )
    supervisor = ExecutionSupervisor(store=store, ledger=ledger, policy=policy)
    own_control = control is None
    if own_control:
        # serial: the second signal must actually preempt the in-flight
        # cell, so the handler raises KeyboardInterrupt on escalation.
        control = ShutdownControl(raise_on_hard=True)
    control.install()
    interrupted = False
    try:
        for cell in remaining:
            if control.draining:
                interrupted = True
                break
            exp_id, n_tasks, rep = cell
            spec = TABLE1[exp_id]
            supervisor.begin(cell, worker=os.getpid())
            w0 = perf_counter()
            try:
                run = run_single(
                    spec, n_tasks, rep,
                    campaign_seed=campaign_seed,
                    resource_pool=resource_pool,
                    collect_digests=collect_digests,
                )
            except KeyboardInterrupt:
                # hard cancel mid-cell: the repetition is lost (it will
                # be re-run on resume), but nothing partial was written
                # — the store only ever holds whole committed cells.
                supervisor.close(cell, "interrupted", "hard-cancelled mid-cell")
                interrupted = True
                break
            wall = perf_counter() - w0
            result.add(run)
            supervisor.commit(cell, run)
            if verbose:
                print(
                    f"{spec.label} n={n_tasks} rep={rep}: "
                    f"TTC={run.ttc:.0f}s Tw={run.tw:.0f}s "
                    f"done={run.units_done}/{n_tasks}"
                )
            progress = CellProgress(
                done=done_offset + len(result.runs), total=total,
                cell=cell, wall_s=wall, ttc=run.ttc,
            )
            if ledger is not None:
                ledger.cell(progress, run=run)
            if on_progress is not None:
                on_progress(progress)
    except KeyboardInterrupt:
        # a hard cancel landing between cells (or inside a ledger/store
        # call): transactions make the store consistent either way.
        interrupted = True
    finally:
        control.restore()
    if interrupted:
        if store is not None:
            store.set_interrupted(True)
        if ledger is not None:
            ledger.campaign_end(
                len(result.runs), 0, perf_counter() - campaign_w0,
                interrupted=True,
            )
        raise CampaignInterrupted(
            f"campaign interrupted after {done_offset + len(result.runs)}"
            f"/{total} cells; the store holds every committed cell",
            result=result,
        )
    if store is not None:
        store.set_interrupted(False)
    if ledger is not None:
        ledger.campaign_end(
            len(result.runs), 0, perf_counter() - campaign_w0
        )
    if resume and store is not None:
        # the caller sees the whole campaign — previously committed
        # cells included — in grid order, exactly as an uninterrupted
        # run would have returned it.
        return store.load_campaign()
    return result


def campaign_meta(
    experiments: Sequence[int],
    task_counts: Sequence[int],
    reps: int,
    campaign_seed: int,
    resource_pool: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """The provenance dict a campaign carries in ``CampaignResult.meta``."""
    return {
        "experiments": [int(e) for e in experiments],
        "task_counts": [int(n) for n in task_counts],
        "reps": int(reps),
        "campaign_seed": int(campaign_seed),
        "resource_pool": (
            list(resource_pool) if resource_pool is not None else None
        ),
    }
