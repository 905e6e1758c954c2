"""Tests for the XDMoD-style workload characterization."""

import pytest

from repro.cluster import (
    BatchJob,
    Cluster,
    PRESETS,
    WorkloadCharacterizer,
    build_resource,
)
from repro.des import Simulation


def test_empty_report():
    sim = Simulation()
    cluster = Cluster(sim, "c", nodes=1, cores_per_node=8, submit_overhead=0.0)
    wc = WorkloadCharacterizer(sim, cluster)
    report = wc.report()
    assert report.total_jobs == 0
    assert report.total_core_hours == 0
    assert report.fraction("30s-30m") == 0.0


def test_bucket_assignment():
    sim = Simulation()
    cluster = Cluster(sim, "c", nodes=8, cores_per_node=8, submit_overhead=0.0)
    wc = WorkloadCharacterizer(sim, cluster)
    for runtime, cores in ((10, 1), (600, 4), (3600, 16), (30000, 64)):
        cluster.submit(BatchJob(cores=cores, runtime=runtime,
                                walltime=max(60, runtime * 2)))
    sim.run()
    report = wc.report()
    assert report.total_jobs == 4
    assert report.fraction("<30s") == 0.25
    assert report.fraction("30s-30m") == 0.25
    assert report.fraction("30m-2h") == 0.25
    assert report.fraction(">8h") == 0.25
    assert report.size_fractions["1"] == 0.25
    assert report.size_fractions["64-255"] == 0.25
    expected_core_hours = (10 * 1 + 600 * 4 + 3600 * 16 + 30000 * 64) / 3600
    assert report.total_core_hours == pytest.approx(expected_core_hours)


def test_timeout_jobs_use_elapsed_time():
    sim = Simulation()
    cluster = Cluster(sim, "c", nodes=1, cores_per_node=8, submit_overhead=0.0)
    wc = WorkloadCharacterizer(sim, cluster)
    # runs 60 s then killed at walltime: counts in 30s-30m with 60 s elapsed
    cluster.submit(BatchJob(cores=1, runtime=5000, walltime=60))
    sim.run()
    report = wc.report()
    assert report.total_jobs == 1
    assert report.fraction("30s-30m") == 1.0


def test_cancelled_jobs_not_counted():
    sim = Simulation()
    cluster = Cluster(sim, "c", nodes=1, cores_per_node=8, submit_overhead=0.0)
    wc = WorkloadCharacterizer(sim, cluster)
    job = BatchJob(cores=1, runtime=5000, walltime=6000)
    cluster.submit(job)
    sim.run(until=100)
    cluster.cancel(job)
    sim.run(until=200)
    assert wc.report().total_jobs == 0


def test_preset_workload_matches_paper_band():
    """The paper cites 25-55% of 2010-13 XSEDE jobs at 30s-30min; our
    synthetic mixes land near that band (documented ~20-35%)."""
    sim = Simulation(seed=8)
    res = build_resource(sim, PRESETS["stampede-sim"])
    wc = WorkloadCharacterizer(sim, res.cluster)
    sim.run(until=24 * 3600)
    report = wc.report()
    assert report.total_jobs > 200
    assert 0.10 <= report.fraction("30s-30m") <= 0.60
    # fractions sum to 1 in both views
    assert sum(report.duration_fractions.values()) == pytest.approx(1.0)
    assert sum(report.size_fractions.values()) == pytest.approx(1.0)
