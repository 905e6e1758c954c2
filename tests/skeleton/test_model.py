"""Tests for the skeleton application model and materialization."""

import numpy as np
import pytest

from repro.skeleton import (
    Constant,
    SkeletonApp,
    SkeletonError,
    StageSpec,
    bag_of_tasks,
    map_reduce,
    paper_skeleton,
)

RNG = np.random.default_rng(7)


def test_stage_spec_validation():
    with pytest.raises(SkeletonError):
        StageSpec(name="s", n_tasks=0, task_duration=Constant(1))
    with pytest.raises(SkeletonError):
        StageSpec(name="s", n_tasks=1, task_duration=Constant(1), cores_per_task=0)
    with pytest.raises(SkeletonError):
        StageSpec(name="s", n_tasks=1, task_duration=Constant(1),
                  input_mapping="sideways")
    with pytest.raises(SkeletonError):
        StageSpec(name="s", n_tasks=1, task_duration=Constant(1),
                  outputs_per_task=0)


def test_app_validation():
    with pytest.raises(SkeletonError):
        SkeletonApp("empty", [])
    s = StageSpec(name="s", n_tasks=1, task_duration=Constant(1))
    with pytest.raises(SkeletonError):
        SkeletonApp("bad-iter", [s], iterations=0)
    dup = StageSpec(name="s", n_tasks=1, task_duration=Constant(1))
    with pytest.raises(SkeletonError):
        SkeletonApp("dup", [s, dup])
    mapped = StageSpec(name="m", n_tasks=1, task_duration=Constant(1),
                       input_mapping="one_to_one")
    with pytest.raises(SkeletonError):
        SkeletonApp("headless", [mapped])


def test_bag_of_tasks_materialization():
    app = bag_of_tasks(16, task_duration=900, input_size=1_000_000,
                       output_size=2_000)
    concrete = app.materialize(RNG)
    assert concrete.n_tasks == 16
    assert len(concrete.stages) == 1
    tasks = concrete.all_tasks()
    assert all(t.duration == 900 for t in tasks)
    assert all(t.input_bytes == 1_000_000 for t in tasks)
    assert all(t.output_bytes == 2_000 for t in tasks)
    assert all(t.depends_on == () for t in tasks)
    assert len(concrete.preparation_files) == 16
    assert concrete.total_compute_seconds == 16 * 900
    assert concrete.max_task_cores == 1


def test_unique_uids_and_file_names():
    concrete = bag_of_tasks(64).materialize(RNG)
    uids = [t.uid for t in concrete.all_tasks()]
    assert len(set(uids)) == 64
    fnames = [f.name for t in concrete.all_tasks() for f in t.inputs + t.outputs]
    assert len(set(fnames)) == len(fnames)


def test_map_reduce_dependencies():
    app = map_reduce(n_map_tasks=8, n_reduce_tasks=1)
    concrete = app.materialize(RNG)
    assert concrete.n_tasks == 9
    maps = concrete.stages[0].tasks
    reduce_task = concrete.stages[1].tasks[0]
    assert set(reduce_task.depends_on) == {t.uid for t in maps}
    # reduce inputs are exactly the map outputs
    map_outputs = {f.name for t in maps for f in t.outputs}
    assert {f.name for f in reduce_task.inputs} == map_outputs


def test_one_to_one_mapping():
    stages = [
        StageSpec(name="a", n_tasks=4, task_duration=Constant(10)),
        StageSpec(name="b", n_tasks=4, task_duration=Constant(5),
                  input_mapping="one_to_one"),
    ]
    concrete = SkeletonApp(name="multistage", stages=stages).materialize(RNG)
    a_tasks = concrete.stages[0].tasks
    b_tasks = concrete.stages[1].tasks
    for i, t in enumerate(b_tasks):
        assert t.depends_on == (a_tasks[i].uid,)
        assert t.inputs == a_tasks[i].outputs


def test_none_mapping():
    stages = [StageSpec(name="a", n_tasks=3, task_duration=Constant(10),
                        input_mapping="none")]
    concrete = SkeletonApp(name="multistage", stages=stages).materialize(RNG)
    assert all(t.inputs == () for t in concrete.all_tasks())
    assert concrete.preparation_files == []


def test_iterations_replicate_stages():
    app = map_reduce(n_map_tasks=4, n_reduce_tasks=1, iterations=3)
    assert app.n_tasks == 15
    concrete = app.materialize(RNG)
    assert concrete.n_tasks == 15
    assert len(concrete.stages) == 6
    # iteration 2's map stage consumes iteration 1's reduce outputs:
    # its input mapping is "external" only in the very first stage.
    second_map = concrete.stages[2].tasks
    first_reduce = concrete.stages[1].tasks
    for t in second_map:
        assert t.depends_on == (first_reduce[0].uid,)


def test_iterative_first_stage_falls_back_to_external():
    stages = [
        StageSpec(name="solve", n_tasks=2, task_duration=Constant(10),
                  input_mapping="one_to_one"),
    ]
    app = SkeletonApp("iter", stages, iterations=2)
    concrete = app.materialize(RNG)
    first = concrete.stages[0].tasks
    second = concrete.stages[1].tasks
    assert all(t.depends_on == () for t in first)  # external fallback
    assert all(len(t.depends_on) == 1 for t in second)


def test_outputs_per_task():
    stages = [StageSpec(name="a", n_tasks=2, task_duration=Constant(1),
                        outputs_per_task=3)]
    concrete = SkeletonApp(name="multistage", stages=stages).materialize(RNG)
    for t in concrete.all_tasks():
        assert len(t.outputs) == 3
        assert len({f.name for f in t.outputs}) == 3


def test_planning_estimates():
    app = bag_of_tasks(32, task_duration=900)
    assert app.n_tasks == 32
    assert app.estimated_compute_seconds() == 32 * 900
    assert app.estimated_longest_task() == 900
    assert app.max_stage_width() == 32


def test_paper_skeleton_variants():
    uni = paper_skeleton(128, gaussian=False)
    concrete = uni.materialize(np.random.default_rng(0))
    assert all(t.duration == 900 for t in concrete.all_tasks())

    gauss = paper_skeleton(128, gaussian=True)
    concrete_g = gauss.materialize(np.random.default_rng(0))
    durations = [t.duration for t in concrete_g.all_tasks()]
    assert all(60 <= d <= 1800 for d in durations)
    assert len(set(durations)) > 10  # actually random

    with pytest.raises(ValueError):
        paper_skeleton(100, gaussian=False)  # not a power of two in range


def test_materialization_reproducible():
    app = paper_skeleton(64, gaussian=True)
    c1 = app.materialize(np.random.default_rng(5))
    c2 = app.materialize(np.random.default_rng(5))
    assert [t.duration for t in c1.all_tasks()] == [
        t.duration for t in c2.all_tasks()
    ]
