"""Tests for non-uniform task sizes (mixed core counts, paper §V)."""

import numpy as np
import pytest

from repro.skeleton import (
    SkeletonApp,
    SkeletonError,
    StageSpec,
    Uniform,
    parse_config,
)

RNG = np.random.default_rng(11)


def test_int_cores_behave_as_before():
    spec = StageSpec(name="s", n_tasks=4, task_duration=60.0, cores_per_task=8)
    app = SkeletonApp("uniform-cores", [spec])
    concrete = app.materialize(RNG)
    assert all(t.cores == 8 for t in concrete.all_tasks())
    assert app.max_stage_width() == 32


def test_invalid_int_cores_rejected():
    with pytest.raises(SkeletonError):
        StageSpec(name="s", n_tasks=1, task_duration=60.0, cores_per_task=0)


@pytest.mark.parametrize("attr", ["task_duration", "cores_per_task"])
def test_polynomial_duration_or_cores_rejected(attr):
    """Duration and cores are drawn before any sibling attribute, and
    planners take their mean: a polynomial cannot give either."""
    kwargs = {"task_duration": 60.0, attr: "poly(input_size, 1, 0.001)"}
    with pytest.raises(SkeletonError, match=attr):
        StageSpec(name="s", n_tasks=1, **kwargs)


def test_sampled_cores_vary_and_floor_at_one():
    spec = StageSpec(
        name="s", n_tasks=64, task_duration=60.0,
        cores_per_task=Uniform(0.0, 16.0),
    )
    app = SkeletonApp("mixed", [spec])
    concrete = app.materialize(np.random.default_rng(3))
    cores = [t.cores for t in concrete.all_tasks()]
    assert min(cores) >= 1
    assert max(cores) <= 16
    assert len(set(cores)) > 4  # genuinely non-uniform
    assert concrete.max_task_cores == max(cores)


def test_spec_string_cores():
    spec = StageSpec(
        name="s", n_tasks=8, task_duration=60.0,
        cores_per_task="uniform(1, 4)",
    )
    cores = [t.cores for t in SkeletonApp("s", [spec]).materialize(RNG)
             .all_tasks()]
    assert 1 <= min(cores) and max(cores) <= 4


def test_planning_estimates_use_mean_cores():
    spec = StageSpec(
        name="s", n_tasks=10, task_duration=100.0,
        cores_per_task=Uniform(2.0, 6.0),  # mean 4
    )
    app = SkeletonApp("mixed", [spec])
    assert app.max_stage_width() == 40
    assert app.estimated_compute_seconds() == pytest.approx(10 * 100 * 4)


def test_config_parser_accepts_cores_spec():
    app = parse_config(
        "[application]\nname = m\nstages = a\n"
        "[stage:a]\ntasks = 8\nduration = 60\ncores = uniform(1, 8)\n"
    )
    concrete = app.materialize(np.random.default_rng(5))
    assert {t.cores for t in concrete.all_tasks()} <= set(range(1, 9))


def test_materialization_deterministic_with_sampled_cores():
    spec = lambda: StageSpec(  # noqa: E731
        name="s", n_tasks=32, task_duration="gauss(600, 100, 60, 1200)",
        cores_per_task="uniform(1, 8)",
    )
    a = SkeletonApp("m", [spec()]).materialize(np.random.default_rng(7))
    b = SkeletonApp("m", [spec()]).materialize(np.random.default_rng(7))
    assert [(t.cores, t.duration) for t in a.all_tasks()] == [
        (t.cores, t.duration) for t in b.all_tasks()
    ]
