"""Tests for the ASCII execution timeline."""

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import (
    ExecutionManager,
    render_report_timeline,
    render_timeline,
)
from repro.des import Simulation
from repro.net import Network
from repro.skeleton import SkeletonAPI, bag_of_tasks


@pytest.fixture(scope="module")
def report():
    sim = Simulation(seed=41)
    net = Network(sim)
    clusters = {}
    for name in ("a", "b"):
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=4, cores_per_node=8,
                                 submit_overhead=0.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle)
    em.pilot_manager.bootstrap_s = 0.0  # agents ready at once
    api = SkeletonAPI(bag_of_tasks(12, task_duration=300), seed=1)
    return em.execute(api)


def test_timeline_structure(report):
    text = render_report_timeline(report)
    lines = text.splitlines()
    assert lines[0].startswith("t=")
    # one row per pilot + header + units row + peak line
    pilot_rows = [l for l in lines if l.startswith("pilot.")]
    assert len(pilot_rows) == len(report.pilots)
    for row in pilot_rows:
        assert "#" in row  # every pilot was active at some point
    assert any("units executing" in l for l in lines)
    assert any("peak concurrency" in l for l in lines)


def test_timeline_shows_queueing():
    """A pilot queued for a large share of the window paints '~' cells."""
    from repro.pilot import ComputePilot, ComputePilotDescription, PilotState

    sim = Simulation(seed=0)
    pilot = ComputePilot(
        sim, ComputePilotDescription(resource="r", cores=8, runtime_min=60)
    )
    sim.call_at(0.0, pilot.advance, PilotState.LAUNCHING)
    sim.call_at(500.0, pilot.advance, PilotState.PENDING_ACTIVE)
    sim.call_at(500.0, pilot.advance, PilotState.ACTIVE)
    sim.call_at(900.0, pilot.advance, PilotState.DONE)
    sim.run()
    text = render_timeline([pilot], [], 0.0, 1000.0)
    assert "~" in text   # queued phase
    assert "#" in text   # active phase
    assert "_" in text   # post-termination tail


def test_validation(report):
    with pytest.raises(ValueError):
        render_timeline(report.pilots, report.units, 10.0, 10.0)


def test_empty_units_ok(report):
    text = render_timeline(
        report.pilots, [], report.decomposition.t_start,
        report.decomposition.t_end,
    )
    assert "pilot." in text
    assert "units executing" not in text
