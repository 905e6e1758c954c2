"""Observed-set environments are exact: full-pool vs observed-set differential.

A repetition draws its warm-up offset and target resources first and
then builds only those resources. This file rebuilds the old full-pool
repetition — all five presets built, primed and warmed up, the choice
drawn afterwards — and checks that the simulated history the
application sees is the same: same resources, TTC, attribution
components and attribution digest. Event counts differ by design (the
unobserved resources' events are gone), so they are not compared.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import PRESETS
from repro.core import Binding, PlannerConfig
from repro.experiments import TABLE1, build_environment, run_single
from repro.experiments import campaign
from repro.experiments.ablation import _observed_environment, _run_once
from repro.experiments.campaign import run_cell_report
from repro.skeleton import SkeletonAPI, paper_skeleton
from repro.telemetry.causality import attribute_report

SIZES = (8, 16, 32, 64)
REPS = range(4)
SEEDS = (2016, 7)


def _full_pool_cell(spec, n_tasks, rep, campaign_seed):
    """The pre-observed-set repetition: build everything, choose later."""
    ss = np.random.SeedSequence(
        entropy=campaign_seed, spawn_key=(spec.exp_id, n_tasks, rep)
    )
    seeds = ss.generate_state(3)
    rng = np.random.default_rng(seeds[0])
    env = build_environment(seed=int(seeds[1]))
    env.warm_up(float(rng.uniform(2 * 3600.0, 12 * 3600.0)))
    chosen = tuple(
        rng.choice(list(env.pool), size=spec.n_pilots, replace=False)
    )
    skeleton = SkeletonAPI(
        paper_skeleton(n_tasks, gaussian=spec.gaussian), seed=int(seeds[2])
    )
    report = env.execution_manager.execute(
        skeleton,
        PlannerConfig(
            binding=spec.binding, unit_scheduler=spec.unit_scheduler,
            n_pilots=spec.n_pilots, resources=chosen,
        ),
    )
    return chosen, report, attribute_report(report), env.sim.events_processed


@pytest.mark.parametrize("campaign_seed", SEEDS)
@pytest.mark.parametrize("exp_id", sorted(TABLE1))
def test_observed_set_matches_full_pool(exp_id, campaign_seed):
    spec = TABLE1[exp_id]
    for n_tasks in SIZES:
        for rep in REPS:
            chosen, report, att, full_events = _full_pool_cell(
                spec, n_tasks, rep, campaign_seed
            )
            run = run_single(spec, n_tasks, rep, campaign_seed=campaign_seed)
            cell = (exp_id, n_tasks, rep, campaign_seed)
            assert run.resources == chosen, cell
            assert run.ttc == report.ttc, cell
            assert run.attribution == att.components, cell
            assert run.attribution_digest == att.digest(), cell
            # the unobserved resources' events are what was saved
            assert run.events < full_events, cell


@pytest.mark.parametrize("exp_id", sorted(TABLE1))
def test_environment_holds_only_the_chosen_resources(exp_id):
    spec = TABLE1[exp_id]
    _, env, chosen = run_cell_report(spec, 16, 1, campaign_seed=2016)
    assert set(env.pool) == set(chosen)
    assert len(env.pool) == spec.n_pilots
    # built in pool order, whatever the submission order
    assert list(env.pool) == [n for n in PRESETS if n in chosen]
    assert set(env.bundle.resources()) == set(chosen)


def _full_pool_run_once(seed, n_tasks, binding, scheduler, n_pilots,
                        resource_pool=None):
    ss = np.random.SeedSequence(entropy=seed)
    s = ss.generate_state(3)
    rng = np.random.default_rng(s[0])
    env = build_environment(seed=int(s[1]), resources=resource_pool)
    env.warm_up(float(rng.uniform(2 * 3600.0, 12 * 3600.0)))
    chosen = tuple(rng.choice(list(env.pool), size=n_pilots, replace=False))
    skeleton = SkeletonAPI(
        paper_skeleton(n_tasks, gaussian=False), seed=int(s[2])
    )
    report = env.execution_manager.execute(
        skeleton,
        PlannerConfig(
            binding=binding, unit_scheduler=scheduler,
            n_pilots=n_pilots, resources=chosen,
        ),
    )
    return report.ttc, report.decomposition.tw


@pytest.mark.parametrize(
    "n_pilots,binding,scheduler,pool",
    [
        (1, Binding.EARLY, "direct", None),
        (3, Binding.LATE, "backfill", None),
        (5, Binding.LATE, "round-robin", None),
        (2, Binding.LATE, "backfill", ("comet-sim", "gordon-sim", "hopper-sim")),
    ],
)
def test_run_once_matches_full_pool(n_pilots, binding, scheduler, pool):
    for seed in (3, 40_017):
        args = (seed, 16, binding, scheduler, n_pilots)
        assert _run_once(*args, resource_pool=pool) == _full_pool_run_once(
            *args, resource_pool=pool
        )


# -- pool validation happens before any simulation work -----------------------


@pytest.fixture
def no_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built an environment for an invalid pool")

    monkeypatch.setattr(campaign, "build_environment", refuse)
    monkeypatch.setattr(
        "repro.experiments.ablation.build_environment", refuse
    )


def test_unknown_pool_name_lists_known_presets(no_build):
    with pytest.raises(ValueError, match="unknown resource preset") as exc:
        run_cell_report(TABLE1[1], 8, resource_pool=("comet-sim", "nope"))
    message = str(exc.value)
    assert "'nope'" in message
    assert all(name in message for name in PRESETS)
    with pytest.raises(ValueError, match="unknown resource preset"):
        _run_once(1, 8, Binding.EARLY, "direct", 1, resource_pool=("nope",))


def test_more_pilots_than_resources_names_both_numbers(no_build):
    with pytest.raises(ValueError, match="3 pilots") as exc:
        run_cell_report(TABLE1[3], 8, resource_pool=("comet-sim",))
    assert "pool has 1" in str(exc.value)
    with pytest.raises(ValueError, match=r"4 pilots.*pool has 2"):
        _observed_environment(
            np.random.default_rng(0), 1, 4, (0.0, 1.0),
            resource_pool=("comet-sim", "gordon-sim"),
        )
