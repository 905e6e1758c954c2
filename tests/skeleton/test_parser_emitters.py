"""Tests for the config parser, output emitters, and the Skeleton API."""

import json

import networkx as nx
import numpy as np
import pytest

from repro.des import Simulation
from repro.net import Network, ORIGIN
from repro.skeleton import (
    SkeletonAPI,
    SkeletonError,
    bag_of_tasks,
    map_reduce,
    parse_config,
    to_dag,
    to_dax,
    to_json,
    to_preparation_script,
    to_shell,
)

CONFIG = """
[application]
name = sample
iterations = 1
stages = map reduce

[stage:map]
tasks = 4
duration = gauss(900, 300, 60, 1800)
input = external
input_size = 1000000
output_size = 100000

[stage:reduce]
tasks = 1
duration = 300
input = all_to_one
output_size = 2000
"""


class TestParser:
    def test_roundtrip(self):
        app = parse_config(CONFIG)
        assert app.name == "sample"
        assert [s.name for s in app.stages] == ["map", "reduce"]
        assert app.stages[0].n_tasks == 4
        assert app.stages[1].input_mapping == "all_to_one"
        concrete = app.materialize(np.random.default_rng(0))
        assert concrete.n_tasks == 5

    def test_missing_application_section(self):
        with pytest.raises(SkeletonError):
            parse_config("[stage:a]\ntasks = 1\nduration = 5\n")

    def test_missing_stage_section(self):
        with pytest.raises(SkeletonError):
            parse_config("[application]\nstages = ghost\n")

    def test_missing_required_keys(self):
        with pytest.raises(SkeletonError):
            parse_config(
                "[application]\nstages = a\n[stage:a]\nduration = 5\n"
            )
        with pytest.raises(SkeletonError):
            parse_config(
                "[application]\nstages = a\n[stage:a]\ntasks = 2\n"
            )

    def test_empty_stage_list(self):
        with pytest.raises(SkeletonError):
            parse_config("[application]\nname = x\n")

    def test_malformed_ini(self):
        with pytest.raises(SkeletonError):
            parse_config("this is not ini at all [[[")


@pytest.fixture
def concrete():
    return map_reduce(n_map_tasks=3, n_reduce_tasks=1).materialize(
        np.random.default_rng(1)
    )


class TestEmitters:
    def test_shell_script_structure(self, concrete):
        script = to_shell(concrete)
        assert script.startswith("#!/bin/sh")
        assert script.count("sleep") == concrete.n_tasks
        assert "stage map" in script and "stage reduce" in script

    def test_preparation_script(self, concrete):
        script = to_preparation_script(concrete)
        assert script.count("dd if=") == len(concrete.preparation_files)

    def test_json_structure(self, concrete):
        doc = json.loads(to_json(concrete))
        sk = doc["skeleton"]
        assert sk["n_tasks"] == concrete.n_tasks
        assert len(sk["stages"]) == 2
        reduce_tasks = sk["stages"][1]["tasks"]
        assert len(reduce_tasks[0]["depends_on"]) == 3

    def test_dag(self, concrete):
        g = to_dag(concrete)
        assert isinstance(g, nx.DiGraph)
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 3
        assert nx.is_directed_acyclic_graph(g)
        # reduce is reachable from every map task
        reduce_uid = concrete.stages[1].tasks[0].uid
        for t in concrete.stages[0].tasks:
            assert nx.has_path(g, t.uid, reduce_uid)

    def test_dax(self, concrete):
        xml = to_dax(concrete)
        assert xml.startswith("<?xml")
        assert xml.count("<job ") == 4
        assert "<child " in xml and "<parent " in xml


class TestSkeletonAPI:
    def test_requirements(self):
        api = SkeletonAPI(bag_of_tasks(32, task_duration=900), seed=3)
        req = api.requirements()
        assert req.n_tasks == 32
        assert req.n_stages == 1
        assert req.max_stage_width == 32
        assert req.estimated_compute_seconds == 32 * 900
        assert req.total_input_bytes == 32 * 1_000_000

    def test_concrete_cached(self):
        api = SkeletonAPI(bag_of_tasks(8), seed=1)
        assert api.concrete is api.concrete

    def test_seed_determines_materialization(self):
        from repro.skeleton import paper_skeleton

        a = SkeletonAPI(paper_skeleton(8, gaussian=True), seed=1)
        b = SkeletonAPI(paper_skeleton(8, gaussian=True), seed=1)
        c = SkeletonAPI(paper_skeleton(8, gaussian=True), seed=2)
        da = [t.duration for t in a.concrete.all_tasks()]
        db = [t.duration for t in b.concrete.all_tasks()]
        dc = [t.duration for t in c.concrete.all_tasks()]
        assert da == db != dc

    def test_prepare_writes_origin_files(self):
        sim = Simulation()
        net = Network(sim)
        api = SkeletonAPI(bag_of_tasks(8), seed=0)
        n = api.prepare(net)
        assert n == 8
        fs = net.fs(ORIGIN)
        for f in api.concrete.preparation_files:
            assert fs.exists(f.name)
