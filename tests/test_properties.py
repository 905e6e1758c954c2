"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    BatchJob,
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FcfsScheduler,
    SchedulerView,
)
from repro.cluster.schedulers import RunningMirror
from repro.des import Simulation
from repro.net import Link
from repro.lifecycle import (
    IllegalTransition,
    UNIT_FINAL,
    UnitState,
    check_transition,
)
from repro.skeleton import (
    SkeletonApp,
    StageSpec,
    to_dag,
)

# ---------------------------------------------------------------------------
# batch scheduler invariants
# ---------------------------------------------------------------------------

job_strategy = st.builds(
    lambda cores, walltime: BatchJob(
        cores=cores, runtime=walltime, walltime=walltime
    ),
    cores=st.integers(1, 64),
    walltime=st.floats(60, 86_400),
)


@st.composite
def scheduler_views(draw):
    total = 128
    pending = draw(st.lists(job_strategy, min_size=0, max_size=20))
    running_jobs = draw(st.lists(job_strategy, min_size=0, max_size=10))
    # clip the running set so it fits the machine
    mirror, acc = RunningMirror(), 0
    for j in running_jobs:
        if acc + j.cores <= total:
            mirror.start(j.uid, float(j.walltime), j.cores)
            acc += j.cores
    # drop pending jobs that can never fit at all
    pending = tuple(j for j in pending if j.cores <= total)
    return SchedulerView(
        now=0.0, free_cores=total - acc, pending=pending, mirror=mirror
    )


@settings(max_examples=150, deadline=None)
@given(view=scheduler_views())
@pytest.mark.parametrize(
    "scheduler_cls",
    [FcfsScheduler, EasyBackfillScheduler, ConservativeBackfillScheduler],
)
def test_scheduler_picks_fit_and_are_unique(scheduler_cls, view):
    picks = scheduler_cls().select(view)
    # no duplicates, all from the pending set
    uids = [j.uid for j in picks]
    assert len(set(uids)) == len(uids)
    pending_uids = {j.uid for j in view.pending}
    assert set(uids) <= pending_uids
    # total started cores never exceed the free cores
    assert sum(j.cores for j in picks) <= view.free_cores


@settings(max_examples=150, deadline=None)
@given(view=scheduler_views())
def test_fcfs_is_a_prefix(view):
    picks = FcfsScheduler().select(view)
    assert picks == list(view.pending[: len(picks)])


@settings(max_examples=150, deadline=None)
@given(view=scheduler_views())
def test_backfill_starts_at_least_fcfs_head_run(view):
    """EASY starts a superset of FCFS's picks (it only adds backfills)."""
    fcfs = FcfsScheduler().select(view)
    easy = EasyBackfillScheduler().select(view)
    assert {j.uid for j in fcfs} <= {j.uid for j in easy}


@settings(max_examples=100, deadline=None)
@given(view=scheduler_views())
def test_easy_never_skips_startable_head(view):
    picks = EasyBackfillScheduler().select(view)
    picked = {j.uid for j in picks}
    if view.pending and view.pending[0].cores <= view.free_cores:
        assert view.pending[0].uid in picked


# ---------------------------------------------------------------------------
# unit state machine
# ---------------------------------------------------------------------------

_ALL_STATES = list(UnitState)


@settings(max_examples=300, deadline=None)
@given(
    old=st.sampled_from(_ALL_STATES),
    new=st.sampled_from(_ALL_STATES),
)
def test_unit_transitions_match_model(old, new):
    nominal = [
        UnitState.NEW, UnitState.UNSCHEDULED, UnitState.SCHEDULING,
        UnitState.STAGING_INPUT, UnitState.PENDING_EXECUTION,
        UnitState.EXECUTING, UnitState.STAGING_OUTPUT, UnitState.DONE,
    ]
    allowed = False
    # next nominal step
    if old in nominal and new in nominal:
        if nominal.index(new) == nominal.index(old) + 1:
            allowed = True
    # cancellation from any non-final state
    if new is UnitState.CANCELED and old not in UNIT_FINAL:
        allowed = True
    # failure from any non-final state; restart from failure
    if new is UnitState.FAILED and old not in UNIT_FINAL:
        allowed = True
    if old is UnitState.FAILED and new is UnitState.UNSCHEDULED:
        allowed = True
    try:
        check_transition(old, new)
        ok = True
    except IllegalTransition:
        ok = False
    assert ok == allowed, f"{old} -> {new}: model={ok} reference={allowed}"


# ---------------------------------------------------------------------------
# fair-share link
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.floats(1, 1e6), min_size=1, max_size=12),
    starts=st.lists(st.floats(0, 100), min_size=1, max_size=12),
    bandwidth=st.floats(10, 1e6),
)
def test_link_conserves_work(sizes, starts, bandwidth):
    sim = Simulation()
    link = Link(sim, "l", bandwidth, latency_s=0.0)
    n = min(len(sizes), len(starts))
    transfers = []
    for size, start in zip(sizes[:n], starts[:n]):
        sim.call_at(start, lambda s=size: transfers.append(link.transfer(s)))
    sim.run()
    assert all(t.triggered and t.ok for t in transfers)
    total = sum(sizes[:n])
    makespan_end = max(t.end_time for t in transfers)
    first_start = min(starts[:n])
    # the link can never beat its full bandwidth
    assert makespan_end - first_start >= total / bandwidth - 1e-6
    # per-flow: no transfer beats bandwidth either
    for t in transfers:
        assert t.end_time - t.start_time >= t.size_bytes / bandwidth - 1e-9
    assert link.bytes_moved == pytest.approx(total)


# ---------------------------------------------------------------------------
# skeleton materialization
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    mappings=st.lists(
        st.sampled_from(["external", "one_to_one", "all_to_one", "none"]),
        min_size=1, max_size=4,
    ),
    iterations=st.integers(1, 3),
    seed=st.integers(0, 2**31),
)
def test_skeleton_materialization_invariants(widths, mappings, iterations, seed):
    n = min(len(widths), len(mappings))
    stages = []
    for i in range(n):
        mapping = mappings[i] if i > 0 or iterations > 1 else (
            "external" if mappings[i] in ("one_to_one", "all_to_one")
            else mappings[i]
        )
        stages.append(
            StageSpec(
                name=f"s{i}",
                n_tasks=widths[i],
                task_duration=60.0,
                input_mapping=mapping,
            )
        )
    try:
        app = SkeletonApp("prop", stages, iterations=iterations)
    except Exception:
        return  # invalid combination rejected at construction: fine
    concrete = app.materialize(np.random.default_rng(seed))
    tasks = concrete.all_tasks()
    # counts
    assert len(tasks) == sum(widths[:n]) * iterations
    # uids unique
    assert len({t.uid for t in tasks}) == len(tasks)
    # all attributes sane
    for t in tasks:
        assert t.duration >= 0
        assert t.cores >= 1
        assert all(f.size_bytes >= 0 for f in t.inputs + t.outputs)
    # dependency graph is a DAG and dependencies point backwards in stages
    dag = to_dag(concrete)
    assert nx.is_directed_acyclic_graph(dag)
    by_uid = {t.uid: t for t in tasks}
    for t in tasks:
        for dep in t.depends_on:
            assert by_uid[dep].stage_index < t.stage_index


# ---------------------------------------------------------------------------
# kernel determinism
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 1000),
    delays=st.lists(st.floats(0.001, 100), min_size=1, max_size=30),
)
def test_simulation_replay_identical(seed, delays):
    def run():
        sim = Simulation(seed=seed)
        log = []
        for i, d in enumerate(delays):
            jitter = sim.rng.get("jitter").exponential(1.0)
            sim.call_in(d + jitter, lambda i=i: log.append((sim.now, i)))
        sim.run()
        return log

    assert run() == run()
