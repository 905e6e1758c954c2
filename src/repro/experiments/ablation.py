"""Ablation studies over the design decisions called out in DESIGN.md.

These go beyond the paper's four experiments, probing the decision space
the Execution Strategy abstraction exposes:

* :func:`pilot_count_sweep` — TTC vs number of pilots (1..5). The paper
  claims three resources already normalize queue-wait variability.
* :func:`scheduler_ablation` — backfill vs round-robin for late binding
  (the paper deliberately does not compare unit schedulers; we measure
  the difference to justify that choice).
* :func:`heterogeneity_ablation` — diverse resource pool vs a pool of
  clones of a single preset (the paper's "relation with resource
  homogeneity" future work).

Every study takes ``jobs=``: samples are seeded per (configuration,
repetition) item up front, so fanning them out over worker processes via
:func:`~repro.experiments.runner.parallel_map` returns exactly the
serial results, in the same order. The per-study ``_sample_*`` functions
are module-level so they pickle.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import PRESETS, ResourcePreset, synthetic_pool
from ..core import Binding, PlannerConfig
from ..skeleton import SkeletonAPI, bag_of_tasks, paper_skeleton
from ..skeleton.distributions import Uniform
from .environment import Environment, build_environment, draw_observed
from .runner import parallel_map


@dataclass(frozen=True)
class AblationPoint:
    """One configuration's aggregated outcome.

    ``aux`` is the study's secondary metric (Tw for queue-wait studies,
    Ts for data-affinity studies), named by ``aux_name``.
    """

    label: str
    ttc_mean: float
    ttc_std: float
    aux_mean: float
    aux_std: float
    n_runs: int
    aux_name: str = "Tw"

    # Backwards-friendly aliases for the queue-wait studies.
    @property
    def tw_mean(self) -> float:
        return self.aux_mean

    @property
    def tw_std(self) -> float:
        return self.aux_std


def _observed_environment(
    rng: np.random.Generator,
    seed: int,
    n_pilots: int,
    warmup_s: Tuple[float, float],
    resource_pool: Optional[Sequence[str]] = None,
    presets: Optional[Sequence[ResourcePreset]] = None,
) -> Tuple[Environment, Tuple[str, ...]]:
    """Draw the offset and resources, then build and warm up only those.

    Returns ``(env, chosen)``; see :func:`draw_observed`. ``presets``
    replaces the built-in pool with explicit presets.
    """
    known = PRESETS if presets is None else {p.name: p for p in presets}
    offset, chosen, observed = draw_observed(
        rng, n_pilots, warmup_s, resource_pool, known,
    )
    env = build_environment(seed=seed, presets=[known[n] for n in observed])
    env.warm_up(offset)
    return env, chosen


def _run_once(
    seed: int,
    n_tasks: int,
    binding: Binding,
    scheduler: str,
    n_pilots: int,
    resource_pool: Optional[Sequence[str]] = None,
) -> Tuple[float, float]:
    """One execution; returns (ttc, tw)."""
    ss = np.random.SeedSequence(entropy=seed)
    s = ss.generate_state(3)
    rng = np.random.default_rng(s[0])
    env, chosen = _observed_environment(
        rng, int(s[1]), n_pilots, (2 * 3600.0, 12 * 3600.0), resource_pool,
    )
    skeleton = SkeletonAPI(paper_skeleton(n_tasks, gaussian=False), seed=int(s[2]))
    report = env.execution_manager.execute(
        skeleton,
        PlannerConfig(
            binding=binding, unit_scheduler=scheduler,
            n_pilots=n_pilots, resources=chosen,
        ),
    )
    return report.ttc, report.decomposition.tw


def _sample_run_once(item) -> Tuple[float, float]:
    """:func:`parallel_map` adapter: one packed :func:`_run_once` call."""
    args, kwargs = item
    return _run_once(*args, **kwargs)


def _aggregate(
    label: str,
    samples: List[Tuple[float, float]],
    aux_name: str = "Tw",
) -> AblationPoint:
    ttcs = np.asarray([t for t, _ in samples])
    aux = np.asarray([w for _, w in samples])
    return AblationPoint(
        label=label,
        ttc_mean=float(ttcs.mean()),
        ttc_std=float(ttcs.std(ddof=0)),
        aux_mean=float(aux.mean()),
        aux_std=float(aux.std(ddof=0)),
        n_runs=len(samples),
        aux_name=aux_name,
    )


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
    pilot_counts = list(pilot_counts)
    items = [
        ((seed * 10_000 + k * 100 + rep, n_tasks,
          Binding.LATE, "backfill", k), {})
        for k in pilot_counts
        for rep in range(reps)
    ]
    samples = parallel_map(_sample_run_once, items, jobs=jobs)
    return [
        _aggregate(f"{k} pilot(s)", samples[i * reps:(i + 1) * reps])
        for i, k in enumerate(pilot_counts)
    ]


def scheduler_ablation(
    n_tasks: int = 256,
    reps: int = 5,
    seed: int = 1,
    jobs: int = 1,
) -> List[AblationPoint]:
    """Backfill vs round-robin unit scheduling under late binding."""
    schedulers = ("backfill", "round-robin")
    # zlib.crc32, not hash(): str hashes are salted per process, which
    # would give every invocation (and every worker) different seeds.
    items = [
        ((seed * 10_000 + zlib.crc32(scheduler.encode()) % 97 * 100 + rep,
          n_tasks, Binding.LATE, scheduler, 3), {})
        for scheduler in schedulers
        for rep in range(reps)
    ]
    samples = parallel_map(_sample_run_once, items, jobs=jobs)
    return [
        _aggregate(scheduler, samples[i * reps:(i + 1) * reps])
        for i, scheduler in enumerate(schedulers)
    ]


def heterogeneity_ablation(
    n_tasks: int = 256,
    reps: int = 5,
    seed: int = 2,
    jobs: int = 1,
) -> List[AblationPoint]:
    """Diverse five-resource pool vs three mid-size clones.

    The clone pool uses three instances of the same preset family
    (comet-sim alone), so all pilots sample statistically identical
    queues; the diverse pool mixes the five presets.
    """
    items = [
        ((seed * 10_000 + rep, n_tasks, Binding.LATE, "backfill", 3), {})
        for rep in range(reps)
    ]
    items += [
        ((seed * 10_000 + 500 + rep, n_tasks, Binding.LATE, "backfill", 1),
         {"resource_pool": ("comet-sim",)})
        for rep in range(reps)
    ]
    samples = parallel_map(_sample_run_once, items, jobs=jobs)
    return [
        _aggregate("diverse pool (5 presets)", samples[:reps]),
        _aggregate("homogeneous (single busy resource)", samples[reps:]),
    ]


def _sample_data_affinity(item) -> Tuple[float, float]:
    seed, rep, mode, n_tasks, input_mb = item
    ss = np.random.SeedSequence(entropy=seed * 1000 + rep)
    s = ss.generate_state(3)
    rng = np.random.default_rng(s[0])
    env = build_environment(seed=int(s[1]))
    env.warm_up(float(rng.uniform(2 * 3600.0, 8 * 3600.0)))
    skeleton = SkeletonAPI(
        bag_of_tasks(
            n_tasks, task_duration=900.0,
            input_size=input_mb * 1e6, output_size=2_000.0,
        ),
        seed=int(s[2]),
    )
    report = env.execution_manager.execute(
        skeleton,
        PlannerConfig(
            binding=Binding.LATE, unit_scheduler="backfill",
            n_pilots=2, optimize=mode,
        ),
    )
    return (report.ttc, report.decomposition.ts)


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
    modes = ("ttc", "data")
    items = [
        (seed, rep, mode, n_tasks, input_mb)
        for mode in modes
        for rep in range(reps)
    ]
    samples = parallel_map(_sample_data_affinity, items, jobs=jobs)
    return [
        _aggregate(
            f"optimize={mode}", samples[i * reps:(i + 1) * reps],
            aux_name="Ts",
        )
        for i, mode in enumerate(modes)
    ]


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
    arms = (
        ("early, 1 pilot (Table I row 1)", Binding.EARLY, "direct", 1),
        ("early, 3 pilots (discarded)", Binding.EARLY, "direct", 3),
        ("late, 3 pilots (Table I row 3)", Binding.LATE, "backfill", 3),
    )
    # Same (seed, rep) across arms: paired comparison on the same
    # testbeds, differing only in the strategy.
    items = [
        ((seed * 10_000 + rep, n_tasks, binding, scheduler, k), {})
        for _, binding, scheduler, k in arms
        for rep in range(reps)
    ]
    samples = parallel_map(_sample_run_once, items, jobs=jobs)
    return [
        _aggregate(label, samples[i * reps:(i + 1) * reps])
        for i, (label, _, _, _) in enumerate(arms)
    ]


def _sample_nonuniform(item) -> Tuple[float, float]:
    seed, k, rep, n_tasks, binding, scheduler = item
    ss = np.random.SeedSequence(entropy=seed * 1000 + k * 10 + rep)
    s = ss.generate_state(3)
    rng = np.random.default_rng(s[0])
    env, chosen = _observed_environment(
        rng, int(s[1]), k, (2 * 3600.0, 10 * 3600.0),
    )
    skeleton = SkeletonAPI(
        bag_of_tasks(
            n_tasks,
            task_duration="gauss(900, 300, 60, 1800)",
            cores_per_task=Uniform(1.0, 16.0),
        ),
        seed=int(s[2]),
    )
    report = env.execution_manager.execute(
        skeleton,
        PlannerConfig(
            binding=binding, unit_scheduler=scheduler,
            n_pilots=k, resources=chosen,
        ),
    )
    return (report.ttc, report.decomposition.tw)


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
    arms = (
        ("early 1 pilot (mixed cores)", Binding.EARLY, "direct", 1),
        ("late 3 pilots (mixed cores)", Binding.LATE, "backfill", 3),
    )
    items = [
        (seed, k, rep, n_tasks, binding, scheduler)
        for _, binding, scheduler, k in arms
        for rep in range(reps)
    ]
    samples = parallel_map(_sample_nonuniform, items, jobs=jobs)
    return [
        _aggregate(label, samples[i * reps:(i + 1) * reps])
        for i, (label, _, _, _) in enumerate(arms)
    ]


def _sample_pool_scaling(item) -> Tuple[float, float]:
    presets, seed, k, rep, n_tasks = item
    ss = np.random.SeedSequence(entropy=seed * 1000 + k * 10 + rep)
    s = ss.generate_state(3)
    rng = np.random.default_rng(s[0])
    env, chosen = _observed_environment(
        rng, int(s[1]), k, (2 * 3600.0, 8 * 3600.0), presets=presets,
    )
    skeleton = SkeletonAPI(
        bag_of_tasks(n_tasks, task_duration=900.0), seed=int(s[2])
    )
    report = env.execution_manager.execute(
        skeleton,
        PlannerConfig(
            binding=Binding.LATE, unit_scheduler="backfill",
            n_pilots=k, resources=chosen,
        ),
    )
    return (report.ttc, report.decomposition.tw)


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
    counts = [k for k in pilot_counts if k <= pool_size]
    items = [
        (presets, seed, k, rep, n_tasks)
        for k in counts
        for rep in range(reps)
    ]
    samples = parallel_map(_sample_pool_scaling, items, jobs=jobs)
    return [
        _aggregate(
            f"{k}/{pool_size} pilots", samples[i * reps:(i + 1) * reps]
        )
        for i, k in enumerate(counts)
    ]


def _sample_locality(item) -> Tuple[float, float]:
    seed, rep, scheduler, n_map_tasks, intermediate_mb = item
    from ..skeleton import map_reduce

    ss = np.random.SeedSequence(entropy=seed * 1000 + rep)
    s = ss.generate_state(3)
    rng = np.random.default_rng(s[0])
    env = build_environment(seed=int(s[1]))
    env.warm_up(float(rng.uniform(2 * 3600.0, 6 * 3600.0)))
    skeleton = SkeletonAPI(
        map_reduce(
            n_map_tasks=n_map_tasks,
            n_reduce_tasks=8,
            map_duration=300.0,
            reduce_duration=120.0,
            input_size=1e6,
            intermediate_size=intermediate_mb * 1e6,
            output_size=2_000.0,
        ),
        seed=int(s[2]),
    )
    report = env.execution_manager.execute(
        skeleton,
        PlannerConfig(
            binding=Binding.LATE, unit_scheduler=scheduler,
            n_pilots=3,
        ),
    )
    return (report.ttc, report.decomposition.ts)


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
    schedulers = ("backfill", "locality")
    items = [
        (seed, rep, scheduler, n_map_tasks, intermediate_mb)
        for scheduler in schedulers
        for rep in range(reps)
    ]
    samples = parallel_map(_sample_locality, items, jobs=jobs)
    return [
        _aggregate(
            scheduler, samples[i * reps:(i + 1) * reps], aux_name="Ts"
        )
        for i, scheduler in enumerate(schedulers)
    ]


def _sample_energy(item) -> Tuple[float, float]:
    seed, rep, binding, scheduler, k, n_tasks = item
    from ..core import report_energy

    ss = np.random.SeedSequence(entropy=seed * 1000 + rep)
    s = ss.generate_state(3)
    rng = np.random.default_rng(s[0])
    env, chosen = _observed_environment(
        rng, int(s[1]), k, (2 * 3600.0, 10 * 3600.0),
    )
    skeleton = SkeletonAPI(
        paper_skeleton(n_tasks, gaussian=False), seed=int(s[2])
    )
    report = env.execution_manager.execute(
        skeleton,
        PlannerConfig(
            binding=binding, unit_scheduler=scheduler,
            n_pilots=k, resources=chosen,
        ),
    )
    energy_kj = report_energy(report).total_joules / 1e3
    return (report.ttc, energy_kj)


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
    arms = (
        ("early, 1 pilot", Binding.EARLY, "direct", 1),
        ("late, 3 pilots", Binding.LATE, "backfill", 3),
    )
    items = [
        (seed, rep, binding, scheduler, k, n_tasks)
        for _, binding, scheduler, k in arms
        for rep in range(reps)
    ]
    samples = parallel_map(_sample_energy, items, jobs=jobs)
    return [
        _aggregate(label, samples[i * reps:(i + 1) * reps], aux_name="kJ")
        for i, (label, _, _, _) in enumerate(arms)
    ]


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


def _sample_emergent_pair(item) -> Tuple[float, float]:
    seed, rep, probe_cores = item
    ss = np.random.SeedSequence(entropy=seed * 100 + rep)
    s = ss.generate_state(2)
    rng = np.random.default_rng(s[0])
    env, (name,) = _observed_environment(
        rng, int(s[1]), 1, (2 * 3600.0, 10 * 3600.0),
    )
    return _probe_pair_on(env.pool[name].cluster, env.sim, probe_cores)


def _sample_sampled_pair(item) -> Tuple[float, float]:
    seed, rep, mu, sigma, probe_cores = item
    from ..cluster.sampled import SampledWaitCluster
    from ..des import Simulation
    from ..net import Network

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

    # --- emergent arm -------------------------------------------------------
    emergent_pairs: List[Tuple[float, float]] = parallel_map(
        _sample_emergent_pair,
        [(seed, rep, probe_cores) for rep in range(n_pairs)],
        jobs=jobs,
    )

    # --- sampled arm (marginals fitted to the emergent waits) ----------------
    all_waits = [w for pair in emergent_pairs for w in pair]
    mu, sigma = fit_lognormal_waits(all_waits)
    sampled_pairs: List[Tuple[float, float]] = parallel_map(
        _sample_sampled_pair,
        [(seed, rep, mu, sigma, probe_cores) for rep in range(n_pairs)],
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
