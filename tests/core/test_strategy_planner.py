"""Tests for the Execution Strategy model and the planner."""

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import (
    Binding,
    ExecutionStrategy,
    PlannerConfig,
    PlanningError,
    derive_strategy,
    estimate_trp_s,
    estimate_tx_s,
)
from repro.des import Simulation
from repro.net import Network
from repro.skeleton import SkeletonAPI, bag_of_tasks


class TestStrategyModel:
    def make(self, **kw):
        defaults = dict(
            binding=Binding.LATE,
            unit_scheduler="backfill",
            n_pilots=2,
            pilot_cores=32,
            pilot_walltime_min=60,
            resources=("a", "b"),
        )
        defaults.update(kw)
        return ExecutionStrategy(**defaults)

    def test_valid(self):
        s = self.make()
        assert "late binding" in s.describe()

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(n_pilots=0, resources=())
        with pytest.raises(ValueError):
            self.make(pilot_cores=0)
        with pytest.raises(ValueError):
            self.make(pilot_walltime_min=0)
        with pytest.raises(ValueError):
            self.make(resources=("a",))  # wrong count
        with pytest.raises(ValueError):
            self.make(binding=Binding.EARLY, unit_scheduler="backfill")
        with pytest.raises(ValueError):
            self.make(binding=Binding.LATE, unit_scheduler="direct")

    def test_early_requires_direct(self):
        s = self.make(
            binding=Binding.EARLY, unit_scheduler="direct",
            n_pilots=1, resources=("a",),
        )
        assert s.binding is Binding.EARLY


@pytest.fixture
def planning_env():
    sim = Simulation(seed=9)
    net = Network(sim)
    clusters = {}
    for name, nodes in (("big", 64), ("mid", 32), ("small", 8)):
        net.add_site(name)
        clusters[name] = Cluster(sim, name, nodes=nodes, cores_per_node=16,
                                 submit_overhead=0.0)
    bundle = ResourceBundle("b", sim, net, clusters)
    return sim, bundle, clusters


def requirements(n_tasks=128, duration=900):
    return SkeletonAPI(
        bag_of_tasks(n_tasks, task_duration=duration), seed=0
    ).requirements()


class TestPlanner:
    def test_late_binding_defaults(self, planning_env):
        sim, bundle, clusters = planning_env
        s = derive_strategy(requirements(128), bundle)
        assert s.binding is Binding.LATE
        assert s.unit_scheduler == "backfill"
        assert s.n_pilots == 3
        assert s.pilot_cores == pytest.approx(128 / 3, abs=1)
        assert len(s.resources) == 3
        assert len(s.decisions) == 6

    def test_early_binding_defaults(self, planning_env):
        sim, bundle, clusters = planning_env
        s = derive_strategy(
            requirements(128), bundle, PlannerConfig(binding=Binding.EARLY)
        )
        assert s.unit_scheduler == "direct"
        assert s.n_pilots == 1
        assert s.pilot_cores == 128  # full concurrency on the single pilot

    def test_table1_walltime_scaling(self, planning_env):
        """Late-binding walltime ~ (Tx+Ts+Trp) * n_pilots (Table I)."""
        sim, bundle, clusters = planning_env
        early = derive_strategy(
            requirements(96), bundle, PlannerConfig(binding=Binding.EARLY)
        )
        late = derive_strategy(
            requirements(96), bundle,
            PlannerConfig(binding=Binding.LATE, n_pilots=3),
        )
        # the late strategy requests roughly 3x the early walltime
        ratio = late.pilot_walltime_min / early.pilot_walltime_min
        assert 2.0 < ratio < 4.5

    def test_resource_ranking_prefers_short_waits(self, planning_env):
        sim, bundle, clusters = planning_env
        for i in range(20):
            clusters["small"].wait_history.append((float(i), 10.0, 64))
            clusters["mid"].wait_history.append((float(i), 2000.0, 64))
            clusters["big"].wait_history.append((float(i), 4000.0, 64))
        s = derive_strategy(
            requirements(16), bundle, PlannerConfig(n_pilots=1)
        )
        assert s.resources == ("small",)

    def test_pinned_resources(self, planning_env):
        sim, bundle, clusters = planning_env
        s = derive_strategy(
            requirements(16), bundle,
            PlannerConfig(n_pilots=2, resources=("big", "mid")),
        )
        assert s.resources == ("big", "mid")
        with pytest.raises(PlanningError):
            derive_strategy(
                requirements(16), bundle,
                PlannerConfig(n_pilots=1, resources=("big", "mid")),
            )
        with pytest.raises(PlanningError):
            derive_strategy(
                requirements(16), bundle,
                PlannerConfig(n_pilots=1, resources=("ghost",)),
            )

    def test_too_many_pilots_rejected(self, planning_env):
        sim, bundle, clusters = planning_env
        with pytest.raises(PlanningError):
            derive_strategy(requirements(16), bundle, PlannerConfig(n_pilots=9))

    def test_oversized_pilot_rejected(self, planning_env):
        sim, bundle, clusters = planning_env
        with pytest.raises(PlanningError):
            derive_strategy(
                requirements(16), bundle,
                PlannerConfig(n_pilots=1, pilot_cores=100_000),
            )

    def test_estimates(self):
        req = requirements(100, duration=100)
        # 100 tasks x 100 s on 50 cores: 200 s volume + 100 s tail
        assert estimate_tx_s(req, 50) == pytest.approx(300)
        with pytest.raises(ValueError):
            estimate_tx_s(req, 0)
        assert estimate_trp_s(req) > 0

    def test_decision_tree_dependencies(self, planning_env):
        sim, bundle, clusters = planning_env
        s = derive_strategy(requirements(64), bundle)
        by_name = {d.name: d for d in s.decisions}
        assert by_name["unit_scheduler"].depends_on == ("binding",)
        assert by_name["pilot_cores"].depends_on == ("n_pilots",)


def test_pilot_size_floored_at_widest_task(planning_env):
    """A multi-core task must fit inside a single pilot (regression:
    a 4-core task with width/3 = 3-core pilots could never run)."""
    from repro.skeleton import SkeletonAPI, SkeletonApp, StageSpec

    sim, bundle, clusters = planning_env
    app = SkeletonApp(name="multistage", stages=[
        StageSpec(name="wide", n_tasks=3, task_duration=100.0,
                  cores_per_task=8),
    ])
    req = SkeletonAPI(app, seed=0).requirements()
    assert req.max_task_cores == 8
    s = derive_strategy(req, bundle, PlannerConfig(n_pilots=3))
    assert s.pilot_cores >= 8
