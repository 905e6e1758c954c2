"""Ablation studies over the design decisions called out in DESIGN.md.

These go beyond the paper's four experiments, probing the decision space
the Execution Strategy abstraction exposes and the paper's §V future
work. Each returns one :class:`AblationPoint` per configuration:

* :func:`pilot_count_sweep` — TTC vs number of pilots (1..5). The paper
  claims three resources already normalize queue-wait variability.
* :func:`scheduler_ablation` — backfill vs round-robin for late binding
  (the paper deliberately does not compare unit schedulers; we measure
  the difference to justify that choice).
* :func:`heterogeneity_ablation` — the diverse five-preset pool vs one
  pilot on a single busy resource (the paper's "relation with resource
  homogeneity" future work).
* :func:`data_affinity_ablation` — TTC-optimized vs data-aware resource
  selection for tasks with large inputs.
* :func:`binding_rationale_study` — the early-binding, multi-pilot
  coupling Table I discards (§IV.A), beside the two it keeps.
* :func:`nonuniform_tasks_study` — early vs late binding on 1-16-core
  tasks (§V).
* :func:`pool_scaling_study` — pilots drawn from a 17-resource
  synthetic pool (§V).
* :func:`locality_study` — data-locality unit scheduling on a two-stage
  pipeline (§V).
* :func:`energy_study` — TTC vs consumed energy per strategy (§V).

:func:`emergent_vs_sampled_study` compares the two queue-wait models
instead.

Every study takes ``jobs=`` and runs its samples as the cells of one
grid on the campaign executor
(:func:`~repro.experiments.runner.run_grid`): a cell ``(arm, size,
rep)`` seeds itself from its arm's entropy plus ``rep`` alone, so every
``jobs`` returns exactly the serial results, and a failing sample
raises :class:`~repro.experiments.runner.GridError` naming it once the
rest of the grid has finished. One sample function serves all nine
:class:`AblationPoint` studies; each study only describes its arms.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import PRESETS, ResourcePreset, synthetic_pool
from ..core import Binding, PlannerConfig, report_energy
from ..skeleton import SkeletonAPI, bag_of_tasks, map_reduce, paper_skeleton
from ..skeleton.distributions import Uniform
from .environment import build_environment, draw_observed
from .runner import Cell, run_grid


@dataclass(frozen=True)
class AblationPoint:
    """One configuration's aggregated outcome.

    ``aux`` is the study's secondary metric (Tw for queue-wait studies,
    Ts for data studies, energy in kJ), named by ``aux_name``.
    """

    label: str
    ttc_mean: float
    ttc_std: float
    aux_mean: float
    aux_std: float
    n_runs: int
    aux_name: str = "Tw"


_HOUR = 3600.0


@dataclass(frozen=True)
class _Arm:
    """One configuration of a study: how each of its samples runs.

    A sample at repetition ``rep`` seeds itself from ``entropy + rep``.
    It draws a warm-up offset in ``warmup_s`` and ``n_pilots`` resources
    from ``presets`` (default: the five built-in ones), builds only
    those — or the whole pool when ``observe_all`` (the planner picks
    the resources) — and warms them up. It then executes
    ``skeleton(size)`` under the planner fields and returns
    ``(ttc, aux)``, where ``aux`` is ``"Tw"``, ``"Ts"`` or consumed
    energy in ``"kJ"``.
    """

    label: str
    entropy: int
    n_pilots: int
    skeleton: Callable
    warmup_s: Tuple[float, float]
    binding: Binding = Binding.LATE
    scheduler: str = "backfill"
    optimize: str = "ttc"
    observe_all: bool = False
    presets: Optional[Tuple[ResourcePreset, ...]] = None
    aux: str = "Tw"


def _sample(arms: Sequence[_Arm], cell: Cell) -> Tuple[float, float]:
    """One execution: arm ``cell[0]`` at size ``cell[1]``, rep ``cell[2]``."""
    index, size, rep = cell
    arm = arms[index]
    s = np.random.SeedSequence(entropy=arm.entropy + rep).generate_state(3)
    known = PRESETS if arm.presets is None else {
        p.name: p for p in arm.presets
    }
    offset, chosen, observed = draw_observed(
        np.random.default_rng(s[0]), arm.n_pilots, arm.warmup_s,
        presets=known,
    )
    env = build_environment(
        seed=int(s[1]),
        presets=[known[n] for n in (known if arm.observe_all else observed)],
    )
    env.warm_up(offset)
    report = env.execution_manager.execute(
        SkeletonAPI(arm.skeleton(size), seed=int(s[2])),
        PlannerConfig(
            binding=arm.binding, unit_scheduler=arm.scheduler,
            n_pilots=arm.n_pilots, optimize=arm.optimize,
            resources=None if arm.observe_all else chosen,
        ),
    )
    if arm.aux == "kJ":
        return report.ttc, report_energy(report).total_joules / 1e3
    return report.ttc, getattr(report.decomposition, arm.aux.lower())


def _run_arms(
    arms: Sequence[_Arm], size: int, reps: int, jobs: int,
) -> List[AblationPoint]:
    """Run ``reps`` samples of every arm on one grid; one point per arm."""
    arms = tuple(arms)
    cells = [(i, size, rep) for i in range(len(arms)) for rep in range(reps)]
    samples = run_grid(partial(_sample, arms), cells, jobs=jobs)
    points = []
    for i, arm in enumerate(arms):
        runs = samples[i * reps:(i + 1) * reps]
        ttcs = np.asarray([ttc for ttc, _ in runs])
        aux = np.asarray([value for _, value in runs])
        points.append(AblationPoint(
            label=arm.label,
            ttc_mean=float(ttcs.mean()),
            ttc_std=float(ttcs.std(ddof=0)),
            aux_mean=float(aux.mean()),
            aux_std=float(aux.std(ddof=0)),
            n_runs=reps,
            aux_name=arm.aux,
        ))
    return points


#: the paper's uniform 15-minute tasks (Exp 1 and 3), at any size
_PAPER_UNIFORM = partial(paper_skeleton, gaussian=False)


def pilot_count_sweep(
    n_tasks: int = 256,
    pilot_counts: Sequence[int] = (1, 2, 3, 4, 5),
    reps: int = 5,
    seed: int = 0,
    jobs: int = 1,
) -> List[AblationPoint]:
    """TTC/Tw vs the number of pilots, late binding + backfill.

    (One pilot with late binding degenerates to early-binding behaviour
    but keeps the scheduler fixed, isolating the multi-resource effect.)
    """
    arms = [
        _Arm(f"{k} pilot(s)", seed * 10_000 + k * 100, k, _PAPER_UNIFORM,
             (2 * _HOUR, 12 * _HOUR))
        for k in pilot_counts
    ]
    return _run_arms(arms, n_tasks, reps, jobs)


def scheduler_ablation(
    n_tasks: int = 256,
    reps: int = 5,
    seed: int = 1,
    jobs: int = 1,
) -> List[AblationPoint]:
    """Backfill vs round-robin unit scheduling under late binding."""
    # zlib.crc32, not hash(): str hashes are salted per process, which
    # would give every invocation (and every worker) different seeds.
    arms = [
        _Arm(scheduler,
             seed * 10_000 + zlib.crc32(scheduler.encode()) % 97 * 100,
             3, _PAPER_UNIFORM, (2 * _HOUR, 12 * _HOUR), scheduler=scheduler)
        for scheduler in ("backfill", "round-robin")
    ]
    return _run_arms(arms, n_tasks, reps, jobs)


def heterogeneity_ablation(
    n_tasks: int = 256,
    reps: int = 5,
    seed: int = 2,
    jobs: int = 1,
) -> List[AblationPoint]:
    """Diverse five-resource pool vs a single busy resource.

    The diverse arm runs three late-binding pilots drawn from the five
    presets; the homogeneous arm runs one pilot on comet-sim alone, so
    the application sees one queue's dynamics instead of a mix.
    """
    warmup = (2 * _HOUR, 12 * _HOUR)
    arms = [
        _Arm("diverse pool (5 presets)", seed * 10_000, 3, _PAPER_UNIFORM,
             warmup),
        _Arm("homogeneous (single busy resource)", seed * 10_000 + 500, 1,
             _PAPER_UNIFORM, warmup, presets=(PRESETS["comet-sim"],)),
    ]
    return _run_arms(arms, n_tasks, reps, jobs)


def data_affinity_ablation(
    n_tasks: int = 64,
    input_mb: float = 50.0,
    reps: int = 4,
    seed: int = 5,
    jobs: int = 1,
) -> List[AblationPoint]:
    """TTC-optimized vs data-aware resource selection on big-file tasks.

    With 50 MB inputs per task, staging over the slower WANs becomes a
    material TTC component; the "data" optimization metric (planner
    decision: compute/data affinity) should steer pilots toward the
    fat-pipe resources. This probes the paper's planned data-intensive
    execution strategies.
    """
    skeleton = partial(
        bag_of_tasks, task_duration=900.0,
        input_size=input_mb * 1e6, output_size=2_000.0,
    )
    arms = [
        _Arm(f"optimize={mode}", seed * 1000, 2, skeleton,
             (2 * _HOUR, 8 * _HOUR), optimize=mode, observe_all=True,
             aux="Ts")
        for mode in ("ttc", "data")
    ]
    return _run_arms(arms, n_tasks, reps, jobs)


def binding_rationale_study(
    n_tasks: int = 128,
    reps: int = 4,
    seed: int = 9,
    jobs: int = 1,
) -> List[AblationPoint]:
    """Measure the combinations Table I *discards* (paper §IV.A).

    The paper argues early binding with multiple pilots is dominated:
    tasks committed to a pilot that turns out to queue slowly simply
    wait, so TTC is governed by the last pilot to activate. We measure
    all three couplings on identical task sets: early/1 (Exp 1), the
    discarded early/3, and late/3 (Exp 3). The discarded combination
    should never beat late binding and should inherit early binding's
    variance.
    """
    # Same entropy across arms: paired comparison on the same testbeds,
    # differing only in the strategy.
    arms = [
        _Arm(label, seed * 10_000, k, _PAPER_UNIFORM,
             (2 * _HOUR, 12 * _HOUR), binding=binding, scheduler=scheduler)
        for label, binding, scheduler, k in (
            ("early, 1 pilot (Table I row 1)", Binding.EARLY, "direct", 1),
            ("early, 3 pilots (discarded)", Binding.EARLY, "direct", 3),
            ("late, 3 pilots (Table I row 3)", Binding.LATE, "backfill", 3),
        )
    ]
    return _run_arms(arms, n_tasks, reps, jobs)


def nonuniform_tasks_study(
    n_tasks: int = 128,
    reps: int = 4,
    seed: int = 7,
    jobs: int = 1,
) -> List[AblationPoint]:
    """Early vs late binding on a mix of 1-16-core tasks (paper §V).

    The paper started experimenting with "distributed applications
    comprised of non-uniform task sizes". Wide tasks fragment pilot
    cores, so strategy differences can shift relative to the single-core
    baseline; this study measures both strategies on the mixed workload.
    """
    skeleton = partial(
        bag_of_tasks, task_duration="gauss(900, 300, 60, 1800)",
        cores_per_task=Uniform(1.0, 16.0),
    )
    arms = [
        _Arm(label, seed * 1000 + k * 10, k, skeleton,
             (2 * _HOUR, 10 * _HOUR), binding=binding, scheduler=scheduler)
        for label, binding, scheduler, k in (
            ("early 1 pilot (mixed cores)", Binding.EARLY, "direct", 1),
            ("late 3 pilots (mixed cores)", Binding.LATE, "backfill", 3),
        )
    ]
    return _run_arms(arms, n_tasks, reps, jobs)


def pool_scaling_study(
    n_tasks: int = 256,
    pool_size: int = 17,
    pilot_counts: Sequence[int] = (1, 3, 5, 9, 17),
    reps: int = 3,
    seed: int = 3,
    jobs: int = 1,
) -> List[AblationPoint]:
    """TTC/Tw vs pilots drawn from a 17-resource synthetic pool (§V).

    The paper extends its experiments "to up to 17 resources"; here a
    synthetic heterogeneous pool of that size hosts late-binding
    executions with increasing pilot counts.
    """
    presets = tuple(synthetic_pool(pool_size, seed=seed))
    skeleton = partial(bag_of_tasks, task_duration=900.0)
    arms = [
        _Arm(f"{k}/{pool_size} pilots", seed * 1000 + k * 10, k, skeleton,
             (2 * _HOUR, 8 * _HOUR), presets=presets)
        for k in pilot_counts
        if k <= pool_size
    ]
    return _run_arms(arms, n_tasks, reps, jobs)


def locality_study(
    n_map_tasks: int = 48,
    intermediate_mb: float = 20.0,
    reps: int = 4,
    seed: int = 17,
    jobs: int = 1,
) -> List[AblationPoint]:
    """Data-locality unit scheduling on a two-stage pipeline (§V).

    Stage-one outputs stay resident at the site that produced them (and
    at the origin). A capacity-only scheduler (backfill) places stage
    two wherever cores are free, re-staging intermediates; the locality
    scheduler binds each stage-two unit where its inputs already live.
    With 20 MB intermediates the staging difference is material; Ts is
    the auxiliary metric.
    """
    skeleton = partial(
        map_reduce, n_reduce_tasks=8, map_duration=300.0,
        reduce_duration=120.0, input_size=1e6,
        intermediate_size=intermediate_mb * 1e6, output_size=2_000.0,
    )
    arms = [
        _Arm(scheduler, seed * 1000, 3, skeleton, (2 * _HOUR, 6 * _HOUR),
             scheduler=scheduler, observe_all=True, aux="Ts")
        for scheduler in ("backfill", "locality")
    ]
    return _run_arms(arms, n_map_tasks, reps, jobs)


def energy_study(
    n_tasks: int = 128,
    reps: int = 4,
    seed: int = 13,
    jobs: int = 1,
) -> List[AblationPoint]:
    """Energy per strategy (the paper §V's energy-efficiency metric).

    Early binding runs one right-sized pilot (low idle burn, but it
    waits); late binding keeps three pilots whose staggered activations
    and sequential waves leave cores idle. The study reports TTC with
    consumed energy (kJ) as the auxiliary metric, making the
    TTC-vs-energy trade-off of the two Table I strategies explicit.
    """
    arms = [
        _Arm(label, seed * 1000, k, _PAPER_UNIFORM, (2 * _HOUR, 10 * _HOUR),
             binding=binding, scheduler=scheduler, aux="kJ")
        for label, binding, scheduler, k in (
            ("early, 1 pilot", Binding.EARLY, "direct", 1),
            ("late, 3 pilots", Binding.LATE, "backfill", 3),
        )
    ]
    return _run_arms(arms, n_tasks, reps, jobs)


@dataclass(frozen=True)
class WaitModelComparison:
    """Emergent vs sampled queue-wait models, compared on correlation."""

    emergent_corr: float      # corr of paired probe waits, emergent model
    sampled_corr: float       # same, i.i.d. sampled model
    emergent_mean: float
    sampled_mean: float
    n_pairs: int

    def render(self) -> str:
        return (
            "Ablation — emergent vs sampled queue waits "
            f"({self.n_pairs} probe pairs, 600 s apart on one resource)\n"
            f"  emergent model: mean wait {self.emergent_mean:7.0f} s, "
            f"pair correlation {self.emergent_corr:+.2f}\n"
            f"  sampled  model: mean wait {self.sampled_mean:7.0f} s, "
            f"pair correlation {self.sampled_corr:+.2f}\n"
            "  (i.i.d. sampling erases the temporal correlation real "
            "queues exhibit,\n   which flatters multi-pilot strategies "
            "and blinds the predictive interface)"
        )


def _probe_pair_on(cluster, sim, probe_cores: int) -> Tuple[float, float]:
    from ..cluster import BatchJob

    probes = []
    for delay in (0.0, 600.0):
        probe = BatchJob(cores=probe_cores, runtime=900,
                         walltime=1800, kind="probe")
        sim.call_in(delay, cluster.submit, probe)
        probes.append(probe)
    sim.run(until=sim.now + 48 * 3600)
    return tuple(
        p.wait_time if p.wait_time is not None else 48 * 3600.0
        for p in probes
    )


def _sample_emergent_pair(seed: int, cell: Cell) -> Tuple[float, float]:
    """A probe pair on one drawn, warmed-up resource of the built-in pool."""
    _, probe_cores, rep = cell
    s = np.random.SeedSequence(entropy=seed * 100 + rep).generate_state(2)
    offset, (name,), _ = draw_observed(
        np.random.default_rng(s[0]), 1, (2 * _HOUR, 10 * _HOUR),
    )
    env = build_environment(seed=int(s[1]), resources=(name,))
    env.warm_up(offset)
    return _probe_pair_on(env.pool[name].cluster, env.sim, probe_cores)


def _sample_sampled_pair(
    seed: int, mu: float, sigma: float, cell: Cell,
) -> Tuple[float, float]:
    """A probe pair on a cluster whose waits are i.i.d. lognormal draws."""
    from ..cluster.sampled import SampledWaitCluster
    from ..des import Simulation
    from ..net import Network

    _, probe_cores, rep = cell
    sim = Simulation(seed=seed * 1000 + rep)
    Network(sim)  # parity with the emergent arm's construction
    cluster = SampledWaitCluster(
        sim, "sampled", nodes=64, cores_per_node=16,
        wait_mu=mu, wait_sigma=sigma, submit_overhead=0.0,
    )
    return _probe_pair_on(cluster, sim, probe_cores)


def emergent_vs_sampled_study(
    n_pairs: int = 12,
    probe_cores: int = 256,
    seed: int = 11,
    jobs: int = 1,
) -> WaitModelComparison:
    """Measure the design decision DESIGN.md calls out: emergent waits.

    Two probe jobs are submitted to the *same* resource 600 s apart; the
    pair's waits are recorded. Under the emergent model the two probes
    sit behind (mostly) the same backlog, so their waits correlate;
    under the i.i.d. sampled model the correlation vanishes by
    construction. The sampled model's lognormal is fitted to the waits
    the emergent arm produced, so the marginals match — only the
    dependence structure differs.
    """
    from ..cluster.sampled import fit_lognormal_waits

    # --- emergent arm: cells (0, probe_cores, rep) ---------------------------
    emergent_pairs: List[Tuple[float, float]] = run_grid(
        partial(_sample_emergent_pair, seed),
        [(0, probe_cores, rep) for rep in range(n_pairs)],
        jobs=jobs,
    )

    # --- sampled arm (marginals fitted to the emergent waits) ----------------
    all_waits = [w for pair in emergent_pairs for w in pair]
    mu, sigma = fit_lognormal_waits(all_waits)
    sampled_pairs: List[Tuple[float, float]] = run_grid(
        partial(_sample_sampled_pair, seed, mu, sigma),
        [(1, probe_cores, rep) for rep in range(n_pairs)],
        jobs=jobs,
    )

    def corr(pairs: List[Tuple[float, float]]) -> float:
        a = np.asarray([p[0] for p in pairs])
        b = np.asarray([p[1] for p in pairs])
        if a.std() == 0 or b.std() == 0:
            return 0.0
        return float(np.corrcoef(a, b)[0, 1])

    return WaitModelComparison(
        emergent_corr=corr(emergent_pairs),
        sampled_corr=corr(sampled_pairs),
        emergent_mean=float(np.mean([w for p in emergent_pairs for w in p])),
        sampled_mean=float(np.mean([w for p in sampled_pairs for w in p])),
        n_pairs=n_pairs,
    )


def render_ablation(title: str, points: Sequence[AblationPoint]) -> str:
    """Format ablation outcomes as an aligned text table."""
    aux = points[0].aux_name if points else "Tw"
    header = (
        f"{'configuration':>36} | {'TTC mean':>9} | {'TTC std':>8} | "
        f"{aux + ' mean':>8} | {aux + ' std':>7} | {'runs':>4}"
    )
    lines = [title, header, "-" * len(header)]
    for p in points:
        lines.append(
            f"{p.label:>36} | {p.ttc_mean:>9.0f} | {p.ttc_std:>8.0f} | "
            f"{p.aux_mean:>8.0f} | {p.aux_std:>7.0f} | {p.n_runs:>4}"
        )
    return "\n".join(lines)
