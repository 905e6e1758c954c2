"""Tests for data-aware resource selection (compute/data affinity)."""

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import PlannerConfig, PlanningError, derive_strategy
from repro.des import Simulation
from repro.net import Network
from repro.skeleton import SkeletonAPI, bag_of_tasks


@pytest.fixture
def env():
    """Two resources: equal queues, wildly different WANs."""
    sim = Simulation(seed=1)
    net = Network(sim)
    clusters = {}
    net.add_site("fatpipe", bandwidth_bytes_per_s=100e6, latency_s=0.01)
    net.add_site("thinpipe", bandwidth_bytes_per_s=1e6, latency_s=0.05)
    for name in ("fatpipe", "thinpipe"):
        clusters[name] = Cluster(sim, name, nodes=32, cores_per_node=16,
                                 submit_overhead=0.0)
        # identical wait history -> identical predicted waits
        for i in range(20):
            clusters[name].wait_history.append((float(i), 300.0, 64))
    bundle = ResourceBundle("b", sim, net, clusters)
    return sim, bundle


def req(input_mb):
    return SkeletonAPI(
        bag_of_tasks(64, task_duration=600, input_size=input_mb * 1e6),
        seed=0,
    ).requirements()


def test_data_mode_prefers_fat_pipe_for_big_data(env):
    sim, bundle = env
    s = derive_strategy(
        req(input_mb=100), bundle,
        PlannerConfig(n_pilots=1, optimize="data"),
    )
    assert s.resources == ("fatpipe",)
    assert "staging estimate" in {d.name: d for d in s.decisions}["resources"].rationale


def test_ttc_mode_ignores_network(env):
    sim, bundle = env
    s = derive_strategy(
        req(input_mb=100), bundle,
        PlannerConfig(n_pilots=1, optimize="ttc"),
    )
    # equal predicted waits: ranking is by insertion order, network unseen
    assert s.resources == ("fatpipe",)
    assert "staging" not in {d.name: d for d in s.decisions}["resources"].rationale


def test_data_mode_negligible_for_tiny_data(env):
    """With KB-scale data both modes agree: waits dominate the score."""
    sim, bundle = env
    # make thinpipe clearly the better queue
    bundle.cluster("thinpipe").wait_history.clear()
    for i in range(20):
        bundle.cluster("thinpipe").wait_history.append((float(i), 1.0, 64))
    s_data = derive_strategy(
        req(input_mb=0.001), bundle,
        PlannerConfig(n_pilots=1, optimize="data"),
    )
    s_ttc = derive_strategy(
        req(input_mb=0.001), bundle,
        PlannerConfig(n_pilots=1, optimize="ttc"),
    )
    assert s_data.resources == s_ttc.resources == ("thinpipe",)


def test_data_mode_overridden_by_queue_when_wait_gap_is_huge(env):
    sim, bundle = env
    # fatpipe's queue becomes terrible: 10x the staging gap
    bundle.cluster("fatpipe").wait_history.clear()
    for i in range(20):
        bundle.cluster("fatpipe").wait_history.append((float(i), 50_000.0, 64))
    s = derive_strategy(
        req(input_mb=10), bundle,
        PlannerConfig(n_pilots=1, optimize="data"),
    )
    assert s.resources == ("thinpipe",)


def test_unknown_metric_rejected(env):
    sim, bundle = env
    with pytest.raises(PlanningError):
        derive_strategy(
            req(1), bundle, PlannerConfig(n_pilots=1, optimize="energy")
        )
