"""Ablations over the design decisions DESIGN.md calls out.

* number of pilots (1..5): the paper claims the queue-wait variability
  is "already overcome by using three resources" — we sweep past three
  to show diminishing returns;
* unit scheduler under late binding: backfill vs round-robin;
* resource-pool heterogeneity: the diverse five-preset pool vs a single
  busy resource.
"""

import os

from repro.experiments import (
    binding_rationale_study,
    data_affinity_ablation,
    heterogeneity_ablation,
    pilot_count_sweep,
    pool_scaling_study,
    render_ablation,
    scheduler_ablation,
)

REPS = int(os.environ.get("REPRO_ABLATION_REPS", "4"))


def test_bench_pilot_count_sweep(benchmark):
    points = benchmark.pedantic(
        pilot_count_sweep,
        kwargs=dict(n_tasks=256, pilot_counts=(1, 2, 3, 4, 5), reps=REPS),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_ablation("Ablation — TTC vs number of pilots "
                          "(late binding, backfill, 256 tasks)", points))
    by_count = {p.label: p for p in points}
    one = by_count["1 pilot(s)"]
    three = by_count["3 pilot(s)"]
    five = by_count["5 pilot(s)"]
    # Three pilots already normalize Tw relative to one...
    assert three.aux_std <= one.aux_std
    # ...and five pilots do not dramatically improve on three (diminishing
    # returns; allow generous slack since these are small samples).
    assert five.ttc_mean > 0.4 * three.ttc_mean


def test_bench_scheduler_ablation(benchmark):
    points = benchmark.pedantic(
        scheduler_ablation,
        kwargs=dict(n_tasks=256, reps=REPS),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_ablation("Ablation — unit scheduler under late binding "
                          "(256 tasks, 3 pilots)", points))
    by_label = {p.label: p for p in points}
    # Backfill must not lose to capacity-blind round-robin by a wide margin
    # (round-robin can strand units on still-queued pilots).
    assert by_label["backfill"].ttc_mean <= by_label["round-robin"].ttc_mean * 1.5


def test_bench_data_affinity_ablation(benchmark):
    points = benchmark.pedantic(
        data_affinity_ablation,
        kwargs=dict(n_tasks=64, input_mb=50.0, reps=REPS),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_ablation("Ablation — data-aware vs wait-only resource "
                          "selection (64 x 50 MB-input tasks)", points))
    by_label = {p.label: p for p in points}
    # Data-aware selection must not increase staging time on average.
    assert (
        by_label["optimize=data"].aux_mean
        <= by_label["optimize=ttc"].aux_mean * 1.25
    )


def test_bench_pool_scaling(benchmark):
    points = benchmark.pedantic(
        pool_scaling_study,
        kwargs=dict(
            n_tasks=128, pool_size=17,
            pilot_counts=(1, 3, 9), reps=max(2, REPS - 2),
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_ablation("Ablation — pilots drawn from a 17-resource "
                          "synthetic pool (128 tasks)", points))
    assert len(points) == 3
    one = points[0]
    many = points[-1]
    # More sampled queues should not make worst-case waits worse.
    assert many.aux_std <= one.aux_std * 1.5


def test_bench_binding_rationale(benchmark):
    """Validate the paper's §IV.A design choice: early binding with
    multiple pilots is dominated (TTC set by the last pilot), which is
    why Table I omits it."""
    points = benchmark.pedantic(
        binding_rationale_study,
        kwargs=dict(n_tasks=128, reps=REPS),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_ablation("Ablation — the couplings Table I discards "
                          "(128 tasks)", points))
    by_label = {p.label.split(" (")[0]: p for p in points}
    discarded = by_label["early, 3 pilots"]
    late = by_label["late, 3 pilots"]
    # the discarded combination must not beat late binding meaningfully
    assert discarded.ttc_mean >= late.ttc_mean * 0.8


def test_bench_heterogeneity_ablation(benchmark):
    points = benchmark.pedantic(
        heterogeneity_ablation,
        kwargs=dict(n_tasks=256, reps=REPS),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_ablation("Ablation — resource-pool heterogeneity "
                          "(256 tasks)", points))
    assert len(points) == 2
    assert all(p.n_runs == REPS for p in points)


def test_bench_emergent_vs_sampled(benchmark):
    """DESIGN.md decision #1, measured: emergent queues carry the temporal
    correlation that i.i.d. wait sampling destroys."""
    from repro.experiments import emergent_vs_sampled_study

    cmp = benchmark.pedantic(
        emergent_vs_sampled_study,
        kwargs=dict(n_pairs=max(8, REPS * 2)),
        rounds=1,
        iterations=1,
    )
    print()
    print(cmp.render())
    assert cmp.emergent_corr > cmp.sampled_corr + 0.3, (
        "emergent waits should be far more correlated than sampled ones"
    )


def test_bench_energy_study(benchmark):
    """The §V energy metric: late binding trades extra idle core burn
    for its TTC advantage."""
    from repro.experiments import energy_study

    points = benchmark.pedantic(
        energy_study,
        kwargs=dict(n_tasks=128, reps=REPS),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_ablation("Ablation — TTC vs energy per strategy "
                          "(128 tasks)", points))
    by_label = {p.label: p for p in points}
    early = by_label["early, 1 pilot"]
    late = by_label["late, 3 pilots"]
    # both consume at least the active burn of the tasks themselves
    assert early.aux_mean > 0 and late.aux_mean > 0
    # the energy gap stays bounded (no runaway idle pilots)
    assert late.aux_mean < early.aux_mean * 3


def test_bench_locality_study(benchmark):
    """Unit-level data affinity: the locality policy re-stages less."""
    from repro.experiments import locality_study

    points = benchmark.pedantic(
        locality_study,
        kwargs=dict(n_map_tasks=48, intermediate_mb=20.0, reps=REPS),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_ablation("Ablation — data-locality unit scheduling "
                          "(48 maps x 20 MB intermediates)", points))
    by_label = {p.label: p for p in points}
    assert (
        by_label["locality"].aux_mean <= by_label["backfill"].aux_mean
    ), "locality scheduling must not stage more than capacity-only binding"
