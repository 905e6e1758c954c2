"""Strategy derivation: integrating application and resource information.

This is steps (2)–(3) of the Execution Manager's five-step enactment:
given the application requirements (from the Skeleton API) and resource
availability/capabilities (from the Bundle API), derive an execution
strategy. The derivation follows the semi-empirical heuristics of the
paper and reproduces the walltime formulas of Table I:

* early binding, 1 pilot, pilot size = peak task concurrency,
  walltime = Tx + Ts + Trp;
* late binding, N pilots, pilot size = peak / N,
  walltime = (Tx + Ts + Trp) * N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..bundle import ResourceBundle
from ..skeleton import ApplicationRequirements
from .strategy import Binding, Decision, ExecutionStrategy

#: Middleware overhead allowance per task (seconds) used in walltime
#: estimates — the paper's Trp term. Tuned for this middleware's measured
#: dispatch/bookkeeping cost per unit plus a constant startup term.
TRP_BASE_S = 120.0
TRP_PER_TASK_S = 0.25

#: Safety factor on walltime requests: running out of pilot walltime
#: strands tasks, so the middleware over-requests modestly (as users do).
WALLTIME_SAFETY = 1.25

#: pilots of a late-binding strategy that pins no count (at most one per
#: resource of the pool).
MAX_PILOTS = 3


@dataclass(frozen=True)
class PlannerConfig:
    """The free choices of an execution strategy, before derivation.

    ``None`` fields are decided by the planner from bundle information.
    This is how the experiments pin the Table I decision subsets while
    the remaining decisions are derived.
    """

    binding: Binding = Binding.LATE
    n_pilots: Optional[int] = None          # late binding: min(MAX_PILOTS, pool)
    unit_scheduler: Optional[str] = None    # derived from binding
    resources: Optional[Tuple[str, ...]] = None  # derived from bundle ranking
    pilot_cores: Optional[int] = None       # derived from app concurrency
    pilot_walltime_min: Optional[float] = None   # derived from Tx+Ts+Trp
    #: resources the planner must not use (e.g. quarantined by the
    #: health layer during runtime re-planning). Pinning a resource that
    #: is also excluded is a :class:`PlanningError`.
    exclude: Tuple[str, ...] = ()
    #: optimization metric for resource selection: "ttc" ranks by the
    #: bundle's predicted queue wait alone; "data" adds the estimated
    #: staging time of this application's per-resource data share
    #: (compute/data affinity for data-intensive applications).
    optimize: str = "ttc"


class PlanningError(Exception):
    """Raised when no feasible strategy exists for the request."""


def estimate_tx_s(req: ApplicationRequirements, total_cores: int) -> float:
    """Estimated workflow execution time on ``total_cores`` cores.

    A bag of W tasks on C cores runs in ~ceil(W/C) waves; more generally
    we bound by compute volume / cores plus one longest task for the
    final partial wave.
    """
    if total_cores <= 0:
        raise ValueError("total_cores must be positive")
    volume_bound = req.estimated_compute_seconds / total_cores
    return volume_bound + req.estimated_longest_task


def estimate_ts_s(
    req: ApplicationRequirements, bundle: ResourceBundle, resources: Sequence[str]
) -> float:
    """Estimated total data staging time across the chosen resources.

    Staging parallelizes over the per-resource links, so we take the
    bytes split evenly across resources through each link's estimate.
    """
    n = max(1, len(resources))
    per_resource_bytes = (req.total_input_bytes + req.total_output_bytes) / n
    estimates = [
        bundle.estimate_transfer_time(r, per_resource_bytes) for r in resources
    ]
    return max(estimates) if estimates else 0.0


def estimate_trp_s(req: ApplicationRequirements) -> float:
    """Estimated middleware overhead (the paper's Trp term)."""
    return TRP_BASE_S + TRP_PER_TASK_S * req.n_tasks


def derive_strategy(
    req: ApplicationRequirements,
    bundle: ResourceBundle,
    config: Optional[PlannerConfig] = None,
) -> ExecutionStrategy:
    """Derive a full execution strategy (the Execution Manager's step 3)."""
    config = config or PlannerConfig()
    decisions: list[Decision] = []

    excluded = set(config.exclude)
    if excluded and config.resources is not None:
        overlap = excluded & set(config.resources)
        if overlap:
            raise PlanningError(
                f"pinned resources {sorted(overlap)} are excluded "
                "(quarantined?) — unpin or wait for recovery"
            )

    # -- decision 1: binding ------------------------------------------------------
    binding = config.binding
    decisions.append(
        Decision(
            "binding",
            binding.value,
            "late binding drains tasks through the first active pilot; "
            "early binding commits tasks before queue waits are known",
        )
    )

    # -- decision 2: unit scheduler (depends on binding) -----------------------------
    scheduler = config.unit_scheduler or (
        "direct" if binding is Binding.EARLY else "backfill"
    )
    decisions.append(
        Decision(
            "unit_scheduler", scheduler,
            "direct placement for early binding; backfill keeps active "
            "pilots saturated for late binding",
            depends_on=("binding",),
        )
    )

    # -- decision 3: number of pilots (depends on binding) ----------------------------
    pool = [r for r in bundle.resources() if r not in excluded]
    if not pool and config.resources is None:
        raise PlanningError(
            f"no usable resources in bundle {bundle.name!r}: all "
            f"{len(excluded)} excluded"
        )
    if config.n_pilots is not None:
        n_pilots = config.n_pilots
    elif binding is Binding.EARLY:
        n_pilots = 1
    else:
        n_pilots = min(MAX_PILOTS, len(pool))
    if n_pilots > len(pool) and config.resources is None:
        raise PlanningError(
            f"strategy wants {n_pilots} pilots but the bundle has only "
            f"{len(pool)} resources"
        )
    decisions.append(
        Decision(
            "n_pilots", n_pilots,
            "multiple pilots sample several queues, normalizing the "
            "heavy-tailed wait of any single resource",
            depends_on=("binding",),
        )
    )

    # -- decision 4: resource selection (depends on n_pilots) --------------------------
    if config.resources is not None:
        if len(config.resources) != n_pilots:
            raise PlanningError(
                f"{len(config.resources)} resources pinned for {n_pilots} pilots"
            )
        resources = tuple(config.resources)
        rationale = "pinned by configuration"
    elif config.optimize == "data":
        # Compute/data affinity: add the per-resource staging estimate of
        # this application's data share to the predicted queue wait.
        share = (req.total_input_bytes + req.total_output_bytes) / n_pilots
        scored = sorted(
            (
                (
                    name,
                    wait + bundle.estimate_transfer_time(name, share),
                )
                for name, wait in bundle.rank_by_expected_wait(cores=None)
                if name not in excluded
            ),
            key=lambda pair: pair[1],
        )
        resources = tuple(name for name, _ in scored[:n_pilots])
        rationale = (
            "resources ranked by predicted wait + staging estimate for "
            f"{share / 1e6:.0f} MB each "
            f"({', '.join(f'{n}:{s:.0f}s' for n, s in scored[:n_pilots])})"
        )
    elif config.optimize == "ttc":
        ranked = [
            (name, wait)
            for name, wait in bundle.rank_by_expected_wait(cores=None)
            if name not in excluded
        ]
        resources = tuple(name for name, _ in ranked[:n_pilots])
        rationale = (
            "resources ranked by the bundle's predicted queue wait "
            f"({', '.join(f'{n}:{w:.0f}s' for n, w in ranked[:n_pilots])})"
        )
    else:
        raise PlanningError(
            f"unknown optimization metric {config.optimize!r}; "
            "use 'ttc' or 'data'"
        )
    for r in resources:
        if r not in bundle:
            raise PlanningError(f"resource {r!r} is not in bundle {bundle.name!r}")
    decisions.append(
        Decision("resources", resources, rationale, depends_on=("n_pilots",))
    )

    # -- decision 5: pilot size (depends on n_pilots) ------------------------------------
    if config.pilot_cores is not None:
        pilot_cores = config.pilot_cores
    else:
        # Table I: #tasks for the single early pilot; #tasks/#pilots late —
        # floored at the widest single task, which must fit in one pilot.
        pilot_cores = max(
            1,
            math.ceil(req.max_stage_width / n_pilots),
            req.max_task_cores,
        )
    for r in resources:
        cap = bundle.query(r).compute.total_cores
        if pilot_cores > cap:
            raise PlanningError(
                f"pilot of {pilot_cores} cores exceeds {r} capacity {cap}"
            )
    decisions.append(
        Decision(
            "pilot_cores", pilot_cores,
            "peak task concurrency divided over the pilots",
            depends_on=("n_pilots",),
        )
    )

    # -- decision 6: pilot walltime (depends on size and resources) ------------------------
    if config.pilot_walltime_min is not None:
        walltime_min = config.pilot_walltime_min
    else:
        tx = estimate_tx_s(req, pilot_cores * n_pilots)
        ts = estimate_ts_s(req, bundle, resources)
        trp = estimate_trp_s(req)
        base = (tx + ts + trp) * (n_pilots if binding is Binding.LATE else 1)
        walltime_min = math.ceil(base * WALLTIME_SAFETY / 60.0)
    decisions.append(
        Decision(
            "pilot_walltime_min", walltime_min,
            "Tx + Ts + Trp (times #pilots for late binding, Table I), "
            "plus a safety margin",
            depends_on=("pilot_cores", "resources"),
        )
    )

    return ExecutionStrategy(
        binding=binding,
        unit_scheduler=scheduler,
        n_pilots=n_pilots,
        pilot_cores=pilot_cores,
        pilot_walltime_min=walltime_min,
        resources=resources,
        decisions=decisions,
    )
