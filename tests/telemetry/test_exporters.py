"""Perfetto/OTLP export round-trips against a real (small) execution."""

import json

import pytest

from repro.core import Binding, PlannerConfig
from repro.experiments import build_environment
from repro.skeleton import SkeletonAPI, paper_skeleton
from repro.telemetry import (
    TelemetryHub,
    chrome_trace,
    otlp_trace,
    save_chrome_trace,
    save_otlp_trace,
)

PID_VIRTUAL, PID_WALL = 1, 2


@pytest.fixture(scope="module")
def telemetered_run():
    env = build_environment(
        seed=9, resources=("stampede-sim", "gordon-sim"), telemetry=True
    )
    env.sim.telemetry.start_sampler(env.sim, interval_s=1800.0)
    env.warm_up(3600.0)
    report = env.execution_manager.execute(
        SkeletonAPI(paper_skeleton(16, gaussian=False), seed=1),
        PlannerConfig(binding=Binding.LATE, n_pilots=2),
    )
    env.sim.telemetry.stop_sampler(env.sim)
    env.sim.telemetry.close_open_spans()
    return env, report


def test_chrome_trace_round_trip(telemetered_run, tmp_path):
    env, _ = telemetered_run
    path = tmp_path / "trace.json"
    save_chrome_trace(env.sim.telemetry, str(path))
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)

    events = doc["traceEvents"]
    assert events, "trace must not be empty"
    for ev in events:
        assert {"ph", "pid", "tid", "name"} <= set(ev)
        if ev["ph"] != "M":  # metadata events carry no timestamp
            assert "ts" in ev and ev["ts"] >= 0
        if ev["ph"] == "X":
            assert ev["dur"] >= 0

    pids = {ev["pid"] for ev in events}
    assert pids == {PID_VIRTUAL, PID_WALL}

    # every span appears on both clock tracks
    n_x = lambda pid: sum(
        1 for ev in events if ev["ph"] == "X" and ev["pid"] == pid
    )
    assert n_x(PID_VIRTUAL) == len(env.sim.telemetry.spans)
    assert n_x(PID_WALL) == len(env.sim.telemetry.spans)

    # process metadata names the two clock groups
    meta = {
        (ev["pid"], ev["args"]["name"])
        for ev in events
        if ev["ph"] == "M" and ev["name"] == "process_name"
    }
    assert len(meta) == 2

    assert doc["otherData"]["digest"] == env.sim.telemetry.digest()


def test_chrome_trace_includes_instants():
    hub = TelemetryHub(clock=lambda: 2.5)
    hub.enable()
    hub.instant("cluster", "offline", track="cluster/c", until=10.0)
    doc = chrome_trace(hub)
    (inst,) = [ev for ev in doc["traceEvents"] if ev["ph"] == "i"]
    assert inst["s"] == "t" and inst["ts"] == 2.5e6
    assert (inst["name"], inst["cat"]) == ("offline", "cluster")
    assert inst["args"] == {"until": 10.0}


def test_otlp_trace_shape(telemetered_run, tmp_path):
    env, _ = telemetered_run
    path = tmp_path / "otlp.json"
    save_otlp_trace(env.sim.telemetry, str(path))
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
    assert len(spans) == len(env.sim.telemetry.spans)
    for sp in spans[:20]:
        assert len(sp["traceId"]) == 32
        assert len(sp["spanId"]) == 16
        assert int(sp["endTimeUnixNano"]) >= int(sp["startTimeUnixNano"])
    assert otlp_trace(env.sim.telemetry) == doc


def test_execution_report_carries_a_telemetry_summary(telemetered_run):
    _, report = telemetered_run
    tel = report.telemetry
    assert tel is not None
    assert tel.n_spans > 0 and tel.n_samples > 0
    assert len(tel.digest) == 64
    assert [name for name, _, _ in tel.em_steps] == [
        "gather-information", "derive-strategy", "prepare-inputs",
        "instantiate-pilots", "execute-units",
    ]
