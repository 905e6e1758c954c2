"""Tests for session persistence and energy accounting."""

import json

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import (
    Binding,
    ExecutionManager,
    PlannerConfig,
    allocation_metrics,
    estimate_energy,
    report_energy,
    save_session,
)
from repro.core import energy
from repro.des import Simulation
from repro.net import Network
from repro.skeleton import SkeletonAPI, bag_of_tasks


@pytest.fixture(scope="module")
def executed():
    sim = Simulation(seed=51)
    net = Network(sim)
    clusters = {}
    for name in ("a", "b"):
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=4, cores_per_node=8,
                                 submit_overhead=0.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle)
    em.pilot_manager.bootstrap_s = 0.0  # agents ready at once
    api = SkeletonAPI(bag_of_tasks(8, task_duration=300), seed=2)
    report = em.execute(
        api, PlannerConfig(binding=Binding.LATE, n_pilots=2)
    )
    return sim, report


class TestSession:
    def test_roundtrip(self, executed, tmp_path):
        sim, report = executed
        path = tmp_path / "session.json"
        save_session(report, str(path))
        session = json.loads(path.read_text())
        assert session["application"] == report.application
        assert session["n_tasks"] == 8
        d = session["decomposition"]
        assert d["t_end"] - d["t_start"] == pytest.approx(report.ttc)
        assert len(session["pilots"]) == 2
        assert len(session["units"]) == 8
        assert session["strategy"]["binding"] == "late"
        # histories survive intact
        orig = report.units[0].history.as_list()
        loaded = session["units"][0]["history"]
        assert loaded == [[s, t] for s, t in orig]

    def test_file_is_json(self, executed, tmp_path):
        sim, report = executed
        path = tmp_path / "s.json"
        save_session(report, str(path))
        data = json.loads(path.read_text())
        assert data["format"] == 1
        assert "decisions" in data["strategy"]


class TestEnergy:
    def test_energy_accounting(self, executed):
        sim, report = executed
        est = report_energy(report)
        # 8 tasks x 300 s x 1 core of active burn
        assert est.active_core_s == pytest.approx(2400, rel=0.05)
        assert est.idle_core_s >= 0
        assert est.total_joules == pytest.approx(
            est.active_joules + est.idle_joules
        )
        assert 0 <= est.idle_core_s < est.active_core_s + est.idle_core_s

    def test_custom_power_model(self, executed, monkeypatch):
        sim, report = executed
        monkeypatch.setattr(energy, "ACTIVE_WATTS", 100.0)
        monkeypatch.setattr(energy, "IDLE_WATTS", 0.0)
        est = report_energy(report)
        assert est.idle_joules == 0
        assert est.active_joules == pytest.approx(est.active_core_s * 100)

    def test_empty_execution(self):
        est = estimate_energy([], [])
        assert est.total_joules == 0
        assert est.active_core_s == est.idle_core_s == 0

    def test_idle_energy_reflects_unused_allocation(self, executed):
        sim, report = executed
        est = report_energy(report)
        metrics = allocation_metrics(
            report.pilots, report.units,
            final_time=report.decomposition.t_end,
        )
        # idle core-seconds = consumed - used, same accounting
        assert est.idle_core_s == pytest.approx(
            metrics.consumed_core_s - metrics.used_core_s, rel=0.01
        )

    def test_only_the_staged_out_attempt_is_charged(self, executed):
        from tests.core.test_analytics import restarted_unit

        sim, report = executed
        pilot = report.pilots[0]
        unit = restarted_unit(Simulation())
        unit.pilot = pilot
        est = estimate_energy([pilot], [unit])
        # 200..300 on the pilot; the failed attempt and the requeue gap
        # are not charged to it
        assert est.active_core_s == 100.0
