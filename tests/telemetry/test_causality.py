"""Causal attribution: the exact-partition and critical-path contracts.

The acceptance criteria of the attribution engine, verified over the
real Exp.1-Exp.4 grid (small sizes, one repetition each):

* per-component attribution sums to TTC within 1e-9;
* the critical path tiles [t_start, t_end] contiguously, so its total
  equals TTC;
* the attribution digest is byte-identical across serial and parallel
  campaigns of the same seed.
"""

import math
from types import SimpleNamespace

import pytest

from repro.experiments import run_campaign
from repro.experiments.campaign import TABLE1, run_cell_report, run_single
from repro.telemetry import COMPONENTS, attribute_report
from repro.telemetry.causality import build_graph, critical_path

GRID = [
    (exp_id, n_tasks) for exp_id in (1, 2, 3, 4) for n_tasks in (8, 16)
]


@pytest.fixture(scope="module")
def grid_attributions():
    out = {}
    for exp_id, n_tasks in GRID:
        report, _, _ = run_cell_report(
            TABLE1[exp_id], n_tasks, rep=0, campaign_seed=11
        )
        out[(exp_id, n_tasks)] = (report, attribute_report(report))
    return out


class TestExactPartition:
    def test_components_sum_to_ttc_within_1e9(self, grid_attributions):
        for cell, (report, att) in grid_attributions.items():
            total = sum(value for _, value in att.components)
            assert abs(total - att.ttc) < 1e-9, cell
            assert att.ttc == report.decomposition.ttc

    def test_components_are_nonnegative_and_complete(self, grid_attributions):
        for _, att in grid_attributions.values():
            names = [name for name, _ in att.components]
            assert names == list(COMPONENTS)
            assert all(value >= 0 for _, value in att.components)

    def test_shares_sum_to_one(self, grid_attributions):
        for _, att in grid_attributions.values():
            assert sum(att.shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_work_components_dominate_a_real_run(self, grid_attributions):
        # every experiment spends most of its TTC in identified work,
        # not in the unexplained-idle bucket.
        for cell, (_, att) in grid_attributions.items():
            assert att.shares["idle"] < 0.25, cell
            assert dict(att.components)["tx"] > 0, cell


class TestCriticalPath:
    def test_path_total_equals_ttc(self, grid_attributions):
        for cell, (_, att) in grid_attributions.items():
            total = sum(seg.duration for seg in att.critical_path)
            assert abs(total - att.ttc) < 1e-9, cell

    def test_path_tiles_the_window_contiguously(self, grid_attributions):
        for cell, (_, att) in grid_attributions.items():
            path = att.critical_path
            assert path, cell
            assert path[0].t0 == pytest.approx(att.t_start, abs=1e-9)
            assert path[-1].t1 == pytest.approx(att.t_end, abs=1e-9)
            for a, b in zip(path, path[1:]):
                assert a.t1 == pytest.approx(b.t0, abs=1e-9), cell

    def test_path_components_are_valid(self, grid_attributions):
        for _, att in grid_attributions.values():
            assert {seg.component for seg in att.critical_path} <= set(
                COMPONENTS
            )

    def test_path_by_component_matches_segments(self, grid_attributions):
        (_, att) = next(iter(grid_attributions.values()))
        by = att.path_by_component()
        assert sum(by.values()) == pytest.approx(att.ttc, abs=1e-9)

    def test_late_binding_path_crosses_the_gating_pilot(
        self, grid_attributions
    ):
        # Exp.3's story: some unit's finish is gated by a pilot's queue
        # wait even though the global Tw partition is small.
        _, att = grid_attributions[(3, 16)]
        labels = " ".join(seg.label for seg in att.critical_path)
        assert "queue-wait" in labels or dict(att.components)["tw"] == 0


class TestDeterminism:
    def test_digest_stable_across_replays(self):
        digests = set()
        for _ in range(2):
            report, _, _ = run_cell_report(TABLE1[3], 8, rep=0,
                                           campaign_seed=11)
            digests.add(attribute_report(report).digest())
        assert len(digests) == 1

    def test_digest_identical_serial_vs_parallel_campaign(self):
        kw = dict(
            experiments=(1, 3), task_counts=(8,), reps=2, campaign_seed=2016
        )
        serial = run_campaign(**kw)
        parallel = run_campaign(jobs=2, **kw)
        assert [r.attribution_digest for r in serial.runs] == [
            r.attribution_digest for r in parallel.runs
        ]
        assert all(len(r.attribution_digest) == 64 for r in serial.runs)
        assert [r.attribution for r in serial.runs] == [
            r.attribution for r in parallel.runs
        ]

    def test_digest_same_with_collect_digests_on_and_off(self):
        runs = [
            run_single(TABLE1[3], 8, rep=0, campaign_seed=11,
                       collect_digests=on)
            for on in (False, True)
        ]
        assert [bool(r.digest) for r in runs] == [False, True]
        assert runs[0].attribution_digest == runs[1].attribution_digest
        assert runs[0].attribution == runs[1].attribution

    def test_one_graph_whatever_the_telemetry_switch(self):
        graphs = []
        for on in (False, True):
            report, env, _ = run_cell_report(TABLE1[3], 8, rep=0,
                                             campaign_seed=11, telemetry=on)
            assert env.sim.telemetry.enabled is on
            graphs.append([
                (a.kind, a.t0, a.t1, a.label, a.preds)
                for a in report.graph.activities
            ])
        assert graphs[0] == graphs[1]

    def test_canonical_json_is_compact_and_sorted(self, grid_attributions):
        _, att = grid_attributions[(1, 8)]
        doc = att.canonical_json()
        assert ": " not in doc and ", " not in doc
        assert doc.index('"components"') < doc.index('"critical_path"')


class TestEdgeCases:
    def test_empty_run_attributes_everything_to_idle(self):
        att = attribute_report(
            SimpleNamespace(graph=build_graph([], [], 0.0, 100.0))
        )
        assert dict(att.components)["idle"] == pytest.approx(100.0)
        assert sum(v for _, v in att.components) == pytest.approx(100.0)
        assert sum(seg.duration for seg in att.critical_path) == (
            pytest.approx(100.0)
        )

    def test_zero_length_window(self):
        att = attribute_report(
            SimpleNamespace(graph=build_graph([], [], 50.0, 50.0))
        )
        assert att.ttc == 0.0
        assert all(v == 0.0 for _, v in att.components)
        assert all(v == 0.0 for v in att.shares.values())

    def test_graph_sink_is_a_work_activity(self):
        report, _, _ = run_cell_report(TABLE1[1], 8, rep=0, campaign_seed=11)
        d = report.decomposition
        graph = build_graph(report.pilots, report.units, d.t_start, d.t_end)
        assert graph.sink is not None
        sink = graph.by_key(graph.sink)
        assert math.isfinite(sink.t1)
        path = critical_path(graph)
        assert sum(s.duration for s in path) == pytest.approx(
            d.ttc, abs=1e-9
        )

    def test_summary_mentions_ttc(self, grid_attributions):
        _, att = grid_attributions[(1, 8)]
        assert att.summary().startswith("TTC ")
