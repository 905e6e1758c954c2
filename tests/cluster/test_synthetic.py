"""Tests for synthetic resource-pool generation."""

import pytest

from repro.cluster import synthetic_pool, synthetic_preset
from repro.des import Simulation
from repro.experiments import build_environment


def test_pool_size_and_names():
    pool = synthetic_pool(17, seed=4)
    assert len(pool) == 17
    assert [p.name for p in pool] == [f"synth-{i:02d}" for i in range(17)]
    with pytest.raises(ValueError):
        synthetic_pool(0)


def test_deterministic_in_seed():
    a = synthetic_pool(5, seed=9)
    b = synthetic_pool(5, seed=9)
    c = synthetic_pool(5, seed=10)
    assert [(p.nodes, p.access_schema) for p in a] == [
        (p.nodes, p.access_schema) for p in b
    ]
    assert [(p.nodes, p.access_schema) for p in a] != [
        (p.nodes, p.access_schema) for p in c
    ]


def test_presets_are_plausible():
    for p in synthetic_pool(20, seed=1):
        assert 2048 * 0.8 <= p.nodes * p.cores_per_node <= 16384 * 1.3
        assert p.cores_per_node in (16, 24, 32)
        assert 0.9 <= p.profile.offered_load <= 1.2
        assert p.access_schema in ("slurm", "pbs", "condor")
        assert p.wan_bandwidth_bytes_per_s > 0


def test_pool_is_heterogeneous():
    pool = synthetic_pool(17, seed=2)
    assert len({p.nodes * p.cores_per_node for p in pool}) > 8
    assert len({p.scheduler_factory().name for p in pool}) >= 2
    assert len({p.access_schema for p in pool}) >= 2


def test_synthetic_environment_builds_and_runs():
    env = build_environment(seed=1, presets=synthetic_pool(4, seed=3))
    assert len(env.pool) == 4
    env.warm_up(1800)
    # machines are alive: priming + arrivals produce load
    utils = [r.cluster.utilization for r in env.pool.values()]
    assert max(utils) > 0.5
