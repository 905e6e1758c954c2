"""Seeded chaos tests: the middleware under hostile conditions.

Random workloads, short pilot walltimes, mid-run outages, and random
cancellations — the invariants must hold regardless:

* every unit reaches a final state (no zombies);
* accounting conserves units (done + failed + canceled == submitted);
* no agent ends with leaked core commitments;
* the simulation stays deterministic for a given seed.
"""

import numpy as np
import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import Binding, ExecutionManager, PlannerConfig
from repro.des import Simulation
from repro.net import Network
from repro.pilot import UnitState
from repro.skeleton import SkeletonAPI, bag_of_tasks


def chaos_run(seed: int):
    """One randomized hostile scenario; returns (report, sim)."""
    rng = np.random.default_rng(seed)
    sim = Simulation(seed=seed)
    net = Network(sim)
    clusters = {}
    n_resources = int(rng.integers(2, 5))
    for i in range(n_resources):
        name = f"r{i}"
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(
            sim, name,
            nodes=int(rng.integers(2, 16)),
            cores_per_node=int(rng.choice([8, 16])),
            submit_overhead=float(rng.uniform(0, 5)),
        )
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle)
    em.pilot_manager.bootstrap_s = 0.0  # agents ready at once

    # Random outages on random resources.
    for _ in range(int(rng.integers(0, 3))):
        victim = clusters[f"r{int(rng.integers(n_resources))}"]
        at = float(rng.uniform(10, 2000))
        duration = float(rng.uniform(60, 1200))
        sim.call_at(at, victim.set_offline, duration)

    n_tasks = int(rng.integers(4, 40))
    n_pilots = int(rng.integers(1, n_resources + 1))
    # Deliberately tight walltimes so some pilots die mid-run.
    walltime_min = float(rng.uniform(5, 60))
    api = SkeletonAPI(
        bag_of_tasks(
            n_tasks,
            task_duration=f"uniform(30, {rng.integers(120, 900)})",
        ),
        seed=seed,
    )
    config = PlannerConfig(
        binding=Binding.LATE if rng.random() < 0.7 else Binding.EARLY,
        unit_scheduler=None,
        n_pilots=n_pilots,
        pilot_walltime_min=walltime_min,
    )
    # A run still going at t=200,000 s fails the test (SimulationError).
    report = sim.run_process(em.run(api, config), until=200_000)
    return report, sim


@pytest.mark.parametrize("seed", range(20))
def test_chaos_invariants(seed):
    report, sim = chaos_run(seed)
    units = report.units
    # 1. no zombies
    assert all(u.is_final for u in units), f"seed {seed}: zombie units"
    # 2. conservation
    done = sum(1 for u in units if u.state is UnitState.DONE)
    failed = sum(1 for u in units if u.state is UnitState.FAILED)
    canceled = sum(1 for u in units if u.state is UnitState.CANCELED)
    assert done + failed + canceled == len(units)
    assert report.decomposition.units_done == done
    # 3. no leaked commitments on surviving agents
    for pilot in report.pilots:
        if pilot.agent is not None:
            assert pilot.agent.capacity.in_use == 0, (
                f"seed {seed}: {pilot.uid} leaked cores"
            )
    # 4. all pilots finalized (canceled at the end of the run)
    assert all(p.is_final for p in report.pilots)
    # 5. timestamps sane
    d = report.decomposition
    assert d.t_end >= d.t_start
    assert d.tw >= 0 and d.ts >= 0 and d.tx >= 0


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_chaos_deterministic(seed):
    r1, _ = chaos_run(seed)
    r2, _ = chaos_run(seed)
    assert r1.ttc == r2.ttc
    assert r1.decomposition.units_done == r2.decomposition.units_done
    assert [u.state for u in r1.units] == [u.state for u in r2.units]
