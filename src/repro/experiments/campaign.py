"""The four experiments of Table I, run as Monte-Carlo campaigns.

Each experiment couples one execution strategy with nine bag-of-task
skeleton applications (8..2048 single-core tasks, uniform 15 min or
truncated-Gaussian durations). A campaign runs every (experiment, size)
cell for several repetitions; each repetition gets a fresh simulated
testbed, an independent seed, a randomized warm-up offset, and — as in
the paper — a randomized choice/order of target resources.

This module is the campaign model: the specs, one repetition
(:func:`run_single`), and the result types.
:func:`repro.experiments.runner.run_campaign` executes a grid of them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
