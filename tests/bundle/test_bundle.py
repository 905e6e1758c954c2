"""Tests for the resource bundle: query, predictive, monitoring interfaces."""

import pytest

from repro.bundle import ResourceBundle, UnknownResource
from repro.cluster import BatchJob, Cluster
from repro.des import Simulation
from repro.net import Network


@pytest.fixture
def substrate():
    sim = Simulation(seed=4)
    net = Network(sim)
    clusters = {}
    for name, nodes in (("alpha", 8), ("beta", 4)):
        net.add_site(name, bandwidth_bytes_per_s=1e6, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=nodes, cores_per_node=8,
                                 submit_overhead=0.0)
    bundle = ResourceBundle("main", sim, net, clusters)
    return sim, net, clusters, bundle


def test_bundle_requires_resources():
    sim = Simulation()
    net = Network(sim)
    with pytest.raises(ValueError):
        ResourceBundle("empty", sim, net, {})


def test_membership(substrate):
    sim, net, clusters, bundle = substrate
    assert bundle.resources() == ("alpha", "beta")
    assert "alpha" in bundle
    assert "gamma" not in bundle
    with pytest.raises(UnknownResource):
        bundle.cluster("gamma")
    with pytest.raises(UnknownResource):
        bundle.query("gamma")


def test_query_snapshot_reflects_state(substrate):
    sim, net, clusters, bundle = substrate
    snap = bundle.query("alpha")
    assert snap.compute.total_cores == 64
    assert snap.compute.free_cores == 64
    assert snap.compute.utilization == 0.0
    assert snap.compute.scheduler_policy == "easy-backfill"
    assert snap.network.bandwidth_bytes_per_s == 1e6
    assert snap.storage.files == 0

    clusters["alpha"].submit(BatchJob(cores=32, runtime=100, walltime=200))
    sim.run(until=1)
    snap2 = bundle.query("alpha")
    assert snap2.compute.free_cores == 32
    assert snap2.compute.utilization == 0.5
    assert snap2.timestamp == 1


def test_query_all(substrate):
    sim, net, clusters, bundle = substrate
    snaps = bundle.query_all()
    assert [s.name for s in snaps] == ["alpha", "beta"]


def test_transfer_estimate(substrate):
    sim, net, clusters, bundle = substrate
    est = bundle.estimate_transfer_time("alpha", 1e6)
    assert est == pytest.approx(0.01 + 1.0)
    with pytest.raises(UnknownResource):
        bundle.estimate_transfer_time("gamma", 1.0)


def test_predictive_interface_uses_history(substrate):
    sim, net, clusters, bundle = substrate
    # Manufacture history: alpha fast, beta slow.
    for i in range(20):
        clusters["alpha"].wait_history.append((float(i), 30.0, 64))
        clusters["beta"].wait_history.append((float(i), 3000.0, 64))
    assert bundle.predict_wait("alpha") == pytest.approx(30.0)
    assert bundle.predict_wait("beta") == pytest.approx(3000.0)
    ranked = bundle.rank_by_expected_wait()
    assert ranked[0][0] == "alpha"
    assert ranked[0][1] < ranked[1][1]


def test_prediction_modes(substrate):
    sim, net, clusters, bundle = substrate
    for i in range(20):
        clusters["alpha"].wait_history.append((float(i), 100.0, 8))
    assert bundle.predict_wait("alpha", mode="ewma") == pytest.approx(100.0)
    with pytest.raises(ValueError):
        bundle.predict_wait("alpha", mode="oracle")


def test_setup_time_estimate_in_snapshot(substrate):
    sim, net, clusters, bundle = substrate
    for i in range(20):
        clusters["beta"].wait_history.append((float(i), 500.0, 16))
    snap = bundle.query("beta")
    assert snap.compute.setup_time_estimate == pytest.approx(500.0)


def test_monitoring_threshold_fires(substrate):
    sim, net, clusters, bundle = substrate
    fired = []
    bundle.subscribe(
        "alpha",
        predicate=lambda snap: snap.compute.utilization > 0.4,
        callback=lambda uid, snap: fired.append(sim.now),
    )
    # idle: no notification for a while
    sim.run(until=300)
    assert fired == []
    clusters["alpha"].submit(BatchJob(cores=32, runtime=10_000, walltime=20_000))
    sim.run(until=600)
    assert len(fired) == 1  # notified once, no renotify by default


def test_monitoring_dwell_and_renotify(substrate):
    sim, net, clusters, bundle = substrate
    fired = []
    bundle.subscribe(
        "alpha",
        predicate=lambda snap: snap.compute.utilization > 0.4,
        callback=lambda uid, snap: fired.append(sim.now),
        dwell_s=120,
        renotify_s=180,
    )
    clusters["alpha"].submit(BatchJob(cores=64, runtime=10_000, walltime=20_000))
    sim.run(until=1000)
    assert len(fired) >= 2
    assert fired[0] >= 120  # dwell respected
    assert fired[1] - fired[0] >= 180  # renotify interval respected


def test_bundles_share_clusters(substrate):
    sim, net, clusters, bundle = substrate
    sub = ResourceBundle("alpha-only", sim, net, {"alpha": clusters["alpha"]})
    assert sub.resources() == ("alpha",)
    # the same cluster may appear in several bundles (bundles don't own)
    assert sub.cluster("alpha") is bundle.cluster("alpha")


def test_queue_composition_in_snapshot(substrate):
    sim, net, clusters, bundle = substrate
    # fill alpha, then queue a background job and a pilot job behind it
    clusters["alpha"].submit(BatchJob(cores=64, runtime=5000, walltime=6000))
    clusters["alpha"].submit(
        BatchJob(cores=64, runtime=100, walltime=200, kind="background")
    )
    clusters["alpha"].submit(
        BatchJob(cores=64, runtime=100, walltime=200, kind="pilot")
    )
    sim.run(until=5)
    snap = bundle.query("alpha")
    comp = dict(snap.compute.queue_composition)
    assert comp == {"background": 1, "pilot": 1}
