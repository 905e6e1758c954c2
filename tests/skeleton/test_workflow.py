"""Tests for workflow (DAG) import and execution."""

import networkx as nx
import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import ExecutionManager
from repro.des import Simulation
from repro.net import Network, ORIGIN
from repro.skeleton import (
    SkeletonError,
    WorkflowAPI,
    from_dag,
    partition_levels,
)


def diamond():
    """a -> (b, c) -> d."""
    g = nx.DiGraph()
    g.add_node("a", duration=100, input_bytes=1e6)
    g.add_node("b", duration=200)
    g.add_node("c", duration=50)
    g.add_node("d", duration=75, output_bytes=5_000)
    g.add_edges_from([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    return g


class TestPartitionLevels:
    def test_diamond_levels(self):
        levels = partition_levels(diamond())
        assert levels == [["a"], ["b", "c"], ["d"]]

    def test_depth_is_longest_path(self):
        g = nx.DiGraph()
        for n in "abcd":
            g.add_node(n, duration=1)
        # a->b->c and a->c: c's depth is 2 (via b), d independent
        g.add_edges_from([("a", "b"), ("b", "c"), ("a", "c")])
        levels = partition_levels(g)
        assert levels == [["a", "d"], ["b"], ["c"]]

    def test_cycle_rejected(self):
        g = nx.DiGraph()
        g.add_node("a", duration=1)
        g.add_node("b", duration=1)
        g.add_edges_from([("a", "b"), ("b", "a")])
        with pytest.raises(SkeletonError):
            partition_levels(g)


class TestFromDag:
    def test_structure(self):
        concrete = from_dag(diamond(), name="wf")
        assert concrete.n_tasks == 4
        assert len(concrete.stages) == 3
        by_uid = {t.uid: t for t in concrete.all_tasks()}
        d = by_uid["wf/d"]
        assert set(d.depends_on) == {"wf/b", "wf/c"}
        # d reads b's and c's outputs
        assert {f.name for f in d.inputs} == {"wf/b.out", "wf/c.out"}
        assert d.outputs[0].size_bytes == 5_000

    def test_root_external_input(self):
        concrete = from_dag(diamond(), name="wf")
        assert [f.name for f in concrete.preparation_files] == ["wf/a.in"]

    def test_validation(self):
        with pytest.raises(SkeletonError):
            from_dag(nx.DiGraph())
        g = nx.DiGraph()
        g.add_node("x")  # no duration
        with pytest.raises(SkeletonError):
            from_dag(g)
        g2 = nx.DiGraph()
        g2.add_node("x", duration=-1)
        with pytest.raises(SkeletonError):
            from_dag(g2)
        g3 = nx.DiGraph()
        g3.add_node("x", duration=1, cores=0)
        with pytest.raises(SkeletonError):
            from_dag(g3)


class TestWorkflowExecution:
    def make_env(self):
        sim = Simulation(seed=13)
        net = Network(sim)
        clusters = {}
        for name in ("siteA", "siteB"):
            net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
            clusters[name] = Cluster(sim, name, nodes=8, cores_per_node=16,
                                     submit_overhead=0.0)
        bundle = ResourceBundle("pool", sim, net, clusters)
        em = ExecutionManager(sim, net, bundle)
        em.pilot_manager.bootstrap_s = 0.0  # agents ready at once
        return sim, net, em

    def test_requirements(self):
        api = WorkflowAPI(diamond(), name="wf")
        req = api.requirements()
        assert req.n_tasks == 4
        assert req.n_stages == 3
        assert req.max_stage_width == 2  # b and c in parallel
        assert req.estimated_compute_seconds == 425
        assert req.total_input_bytes == 1e6

    def test_end_to_end_execution_respects_dag(self):
        sim, net, em = self.make_env()
        api = WorkflowAPI(diamond(), name="wf")
        report = em.execute(api)
        assert report.succeeded
        units = {u.description.name: u for u in report.units}
        t = lambda n, s: units[f"wf/{n}"].history.timestamp(s)  # noqa: E731
        assert t("b", "EXECUTING") >= t("a", "DONE")
        assert t("c", "EXECUTING") >= t("a", "DONE")
        assert t("d", "EXECUTING") >= max(t("b", "DONE"), t("c", "DONE"))
        # final output staged home
        assert net.fs(ORIGIN).exists("wf/d.out")

    def test_parallel_level_overlaps(self):
        sim, net, em = self.make_env()
        api = WorkflowAPI(diamond(), name="wf")
        report = em.execute(api)
        units = {u.description.name: u for u in report.units}
        b = units["wf/b"]
        c = units["wf/c"]
        # b runs 200 s, c 50 s; they started close together (same level)
        assert abs(
            b.history.timestamp("EXECUTING") - c.history.timestamp("EXECUTING")
        ) < 60
