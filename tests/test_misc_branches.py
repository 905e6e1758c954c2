"""Mop-up tests for branches not reached by the module suites."""

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import Binding, ExecutionManager, ExecutionStrategy
from repro.des import Simulation
from repro.net import Network
from repro.skeleton import (
    SkeletonAPI,
    SkeletonApp,
    StageSpec,
    bag_of_tasks,
    to_shell,
)


def make_env(seed=0):
    sim = Simulation(seed=seed)
    net = Network(sim)
    clusters = {}
    for name in ("x", "y"):
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=8, cores_per_node=8,
                                 submit_overhead=0.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle)
    em.pilot_manager.bootstrap_s = 0.0  # agents ready at once
    return sim, net, bundle, em


def test_shell_emitter_handles_inputless_tasks():
    app = SkeletonApp(name="multistage", stages=[
        StageSpec(name="noin", n_tasks=2, task_duration=5.0,
                  input_mapping="none"),
    ])
    import numpy as np

    script = to_shell(app.materialize(np.random.default_rng(0)))
    assert "/dev/null" in script  # tasks with no inputs still read something


def test_render_figures_with_partial_campaign():
    from repro.experiments import render_figure2, render_figure3
    from repro.experiments.campaign import CampaignResult, RunResult

    result = CampaignResult()
    result.runs.append(
        RunResult(
            exp_id=1, n_tasks=8, rep=0, resources=("r",),
            ttc=100, tw=10, tw_last=10, tx=80, ts=5, trp=5,
            pilot_waits=(10,), units_done=8, restarts=0,
        )
    )
    fig2 = render_figure2(result)
    assert "--" not in fig2.splitlines()[3]  # 8-task row has data
    assert "--" in fig2.splitlines()[4]      # 16-task row is empty
    fig3 = render_figure3(result, 1)
    assert "8" in fig3


def test_wait_active_fails_when_the_pilot_is_canceled():
    from repro.pilot import ComputePilotDescription, PilotManager

    sim = Simulation(seed=3)
    net = Network(sim)
    net.add_site("z")
    cluster = Cluster(sim, "z", nodes=1, cores_per_node=8, submit_overhead=0.0)
    pm = PilotManager(sim, {"z": cluster})
    (pilot,) = pm.submit_pilots(
        ComputePilotDescription(resource="z", cores=8, runtime_min=10)
    )
    outcome = []

    def waiter():
        try:
            yield pilot.wait_active()
            outcome.append("active")
        except RuntimeError:
            outcome.append("failed")

    sim.process(waiter())
    pm.cancel_pilots([pilot])  # canceled while pending: never activates
    sim.run()
    assert outcome == ["failed"]


def test_strategy_repr():
    s = ExecutionStrategy(
        binding=Binding.LATE, unit_scheduler="backfill",
        n_pilots=3, pilot_cores=10, pilot_walltime_min=30,
        resources=("a", "b", "c"),
    )
    text = s.describe()
    assert "3 pilot(s) x 10 cores" in text
