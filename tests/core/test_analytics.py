"""Tests for session analytics (concurrency, allocation)."""

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import (
    ExecutionManager,
    PlannerConfig,
    Binding,
    allocation_metrics,
    concurrency_series,
)
from repro.des import Simulation
from repro.net import Network
from repro.pilot import ComputeUnit, ComputeUnitDescription, UnitState
from repro.skeleton import SkeletonAPI, bag_of_tasks


@pytest.fixture(scope="module")
def executed():
    sim = Simulation(seed=31)
    sim.telemetry.enable()
    net = Network(sim)
    clusters = {}
    for name in ("a", "b"):
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=4, cores_per_node=4,
                                 submit_overhead=0.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle)
    em.pilot_manager.bootstrap_s = 0.0  # agents ready at once
    # 8 tasks on 2 pilots x 4 cores -> exactly one wave of 8
    api = SkeletonAPI(bag_of_tasks(8, task_duration=300), seed=2)
    report = em.execute(
        api, PlannerConfig(binding=Binding.LATE, n_pilots=2)
    )
    return sim, report


def test_concurrency_series_shape(executed):
    sim, report = executed
    series = concurrency_series(report.units)
    assert series, "expected a non-empty concurrency series"
    levels = [lvl for _, lvl in series]
    assert max(levels) == 8  # full wave in flight at once
    assert series[-1][1] == 0  # everything drained by the end
    times = [t for t, _ in series]
    assert times == sorted(times)


def test_allocation_metrics(executed):
    sim, report = executed
    m = allocation_metrics(report.pilots, report.units, final_time=sim.now)
    assert m.used_core_s == pytest.approx(8 * 300, rel=0.05)
    assert m.consumed_core_s >= m.used_core_s
    assert 0 < m.efficiency <= 1


def restarted_unit(sim):
    """A 1-core unit executing 10..110 (fails), then again 200..300."""
    unit = ComputeUnit(sim, ComputeUnitDescription(name="r", duration_s=100))
    for state, t in [
        (UnitState.UNSCHEDULED, 0.0),
        (UnitState.SCHEDULING, 0.0),
        (UnitState.STAGING_INPUT, 0.0),
        (UnitState.PENDING_EXECUTION, 10.0),
        (UnitState.EXECUTING, 10.0),
        (UnitState.FAILED, 110.0),
        (UnitState.UNSCHEDULED, 110.0),
        (UnitState.SCHEDULING, 150.0),
        (UnitState.STAGING_INPUT, 150.0),
        (UnitState.PENDING_EXECUTION, 200.0),
        (UnitState.EXECUTING, 200.0),
        (UnitState.STAGING_OUTPUT, 300.0),
        (UnitState.DONE, 305.0),
    ]:
        sim.call_at(t, unit.advance, state)
    sim.run()
    return unit


def test_requeue_gap_is_not_execution():
    unit = restarted_unit(Simulation())
    # both attempts burned cores; the gap 110..200 between them did not
    assert allocation_metrics([], [unit]).used_core_s == 200.0
    assert concurrency_series([unit]) == [
        (10.0, 1), (110.0, 0), (200.0, 1), (300.0, 0),
    ]


def test_allocation_metrics_empty():
    m = allocation_metrics([], [])
    assert m.consumed_core_s == 0
    assert m.efficiency == 0
