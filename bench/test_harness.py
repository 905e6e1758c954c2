"""Tests of the benchmark harness: ``python -m pytest bench``.

They run tiny workloads through the real harness and child processes, so
they take seconds, not the minutes of a benchmark run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from bench import OUT_ROOT, ROOT, SRC
from bench.compare import verdict
from bench.harness import (
    E2E_UNITS,
    LAYER_UNITS,
    end_to_end,
    load_reference,
    result_line,
    run_benchmark,
)
from bench.hostspeed import REFERENCE_KERNEL_S, HostSpeed
from bench.layers import LayerError, callback_split
from bench.rep import run_rep
from bench.workloads import P90_MIN_SAMPLES, WORKLOADS, Workload

if SRC not in sys.path:
    sys.path.insert(0, SRC)

TINY = Workload("tiny", (3,), (8,), 2, "loop")
TINY_GRID = Workload("tiny-grid", (1, 3), (8,), 1, "campaign")
NO_REFERENCE = {"cells": {}}
IGNORED = {".git", ".bench_out", "__pycache__", ".pytest_cache", ".hypothesis"}


def _snapshot():
    """(size, mtime) of every file of the checkout that git would track."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in IGNORED]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            files[path] = (st.st_size, st.st_mtime_ns)
    return files


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def tiny_run():
    before = _snapshot()
    report = run_benchmark([TINY], seed=7, reps=2, trace=True,
                           reference=NO_REFERENCE)
    return report, before, _snapshot()


def test_output_schema_and_metric_names(tiny_run):
    report, _, _ = tiny_run
    spec = _benchmark_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # BENCHMARK.json names the metrics the harness emits, with its units
    assert e2e == {k: v for k, v in E2E_UNITS.items() if k in e2e}
    # printed, not listed: see "End-to-end metrics" in bench/README.md
    assert set(E2E_UNITS) - set(e2e) == {
        "cell_error_rate", "cell_wall_p50_s", "cell_wall_p90_s",
    }
    assert layers == LAYER_UNITS

    # untraced runs report the end-to-end metrics, traced runs the
    # per-layer ones
    untraced = json.loads(result_line(report, False))
    traced = json.loads(result_line(report, True))
    assert set(untraced["metrics"]) == set(e2e)
    assert set(traced["metrics"]) == set(layers)
    for line in (untraced, traced):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert (line["attempted"], line["failed"]) == (4, 0)
        for name, m in line["metrics"].items():
            assert set(m) == {"value", "unit"}
            assert m["unit"] == {**e2e, **layers}[name]
            assert isinstance(m["value"], (int, float))
    assert untraced["metrics"]["cells_per_s"]["value"] > 0
    assert traced["metrics"]["bench.layer_coverage"]["value"] >= 0.95


def test_run_writes_no_tracked_file(tiny_run):
    report, before, after = tiny_run
    assert before == after
    assert os.path.commonpath([report.out, OUT_ROOT]) == OUT_ROOT
    assert os.path.isfile(os.path.join(report.out, "digests.json"))
    with open(os.path.join(report.out, "digests.json"), encoding="utf-8") as fh:
        # the second repetition ran other cells, at its own campaign seed
        assert set(json.load(fh)["cells"]) == {
            "7:3/8/0", "7:3/8/1", "100007:3/8/0", "100007:3/8/1",
        }


def test_tampered_reference_digest_fails_the_run():
    reference = load_reference()
    assert "2016:3/8/0" in reference["cells"]
    good = run_benchmark([TINY], seed=2016, reps=1, trace=False,
                         reference=reference)
    assert good.correct, good.problems

    tampered = dict(reference, cells=dict(reference["cells"]))
    tampered["cells"]["2016:3/8/0"] = "0" * 64
    bad = run_benchmark([TINY], seed=2016, reps=1, trace=False,
                        reference=tampered)
    assert not bad.correct
    assert any("2016:3/8/0" in p and "reference" in p for p in bad.problems)
    assert json.loads(result_line(bad, False))["correct"] is False


def _spec(wl, tmp_path):
    return {"workload": wl.to_dict(), "seed": 3, "trace": False,
            "scratch": str(tmp_path), "spawn_t": time.monotonic()}


def test_raising_run_single_is_counted_not_fatal(monkeypatch, tmp_path):
    import repro.experiments.campaign as campaign

    real = campaign.run_single

    def flaky(spec, n_tasks, rep=0, **kwargs):
        if rep == 0:
            raise RuntimeError("injected")
        return real(spec, n_tasks, rep, **kwargs)

    monkeypatch.setattr(campaign, "run_single", flaky)
    result = run_rep(_spec(TINY, tmp_path))
    assert [c["ok"] for c in result["cells"]] == [False, True]
    assert result["cells"][0]["error"] == "RuntimeError: injected"
    metrics = end_to_end([result])
    assert metrics["cell_error_rate"]["value"] == 0.5
    assert metrics["cells_per_s"]["value"] > 0

    # the serial campaign executor stops at the exception: the cell that
    # raised is the one failure, the cells after it were never attempted
    result = run_rep(_spec(TINY_GRID, tmp_path))
    assert [c["ok"] for c in result["cells"]] == [False]
    assert end_to_end([result])["cell_error_rate"]["value"] == 1.0


def _fake_rep(n_cells, slowdown=1.0):
    """A repetition on a host ``slowdown`` times slower than the reference."""
    kernel = REFERENCE_KERNEL_S * slowdown
    return {
        "cells": [{"ok": True, "wall": (0.1 + i * 1e-3) * slowdown,
                   "kernel_s": kernel, "check": None}
                  for i in range(n_cells)],
        "wall_s": (0.11 * n_cells + 0.2) * slowdown,
        "setup_s": 0.5 * slowdown, "setup_kernel_s": kernel,
        "kernel_samples": [kernel] * (n_cells + 2), "peak_rss_mb": 100.0,
    }


def test_p90_needs_enough_pooled_cells():
    assert "cell_wall_p90_s" not in end_to_end([_fake_rep(P90_MIN_SAMPLES - 1)])
    assert "cell_wall_p90_s" in end_to_end([_fake_rep(P90_MIN_SAMPLES)])
    assert "cell_wall_p90_s" in end_to_end([_fake_rep(60), _fake_rep(40)])


def test_times_are_scaled_to_the_reference_host_speed():
    quiet = end_to_end([_fake_rep(60), _fake_rep(50)])
    slow = end_to_end([_fake_rep(60, slowdown=1.7), _fake_rep(50, 1.3)])
    for name in ("cells_per_s", "cell_wall_p50_s", "cell_wall_p90_s",
                 "setup_s"):
        assert slow[name]["value"] == pytest.approx(quiet[name]["value"])
    assert quiet["cells_per_s"]["value"] == pytest.approx(110 / (0.11 * 110 + 0.4))

    # a cell that is slower while the kernel is not counts in full
    rep = _fake_rep(3)
    rep["cells"][1]["wall"] *= 10
    assert end_to_end([rep])["cell_wall_p50_s"]["value"] == pytest.approx(0.102)


def test_host_speed_measures_the_reference_kernel():
    speed = HostSpeed()
    first = speed.measure()
    speed.measure()
    assert len(speed.samples) == 2 and speed.samples[0] == first > 0
    # the time spent measuring covers at least the kernel runs themselves
    assert speed.spent >= sum(speed.samples)


def test_every_label_and_process_maps_to_a_layer():
    profile = {
        "total": 0.3,
        "labels": {"Cluster._dispatch": [2, 0.1], "Process._resume": [1, 0.2]},
        "processes": {"drive/x": [1, 0.2]},
    }
    assert callback_split(profile)["cluster"] == 0.1
    assert callback_split(profile)["pilot"] == 0.2
    with pytest.raises(LayerError, match="Mystery"):
        callback_split(dict(profile, labels={"Mystery._cb": [1, 0.1]}))
    with pytest.raises(LayerError, match="ghost"):
        callback_split(dict(profile, processes={"ghost/1": [1, 0.2]}))


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "no program to measure" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_benchmark_workloads_exist_and_use_at_most_two_workers():
    spec = _benchmark_spec()
    for w in spec["workloads"]:
        assert w["name"] in WORKLOADS
        assert WORKLOADS[w["name"]].jobs <= 2


def test_compare_verdicts():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert verdict(parent, [x * 1.5 for x in parent], "higher", 0.1)[0] == "better"
    assert verdict(parent, [x * 0.8 for x in parent], "higher", 0.1)[0] == "worse"
    assert verdict(parent, list(parent), "lower", 0.1)[0] == "no regression"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0]
    assert verdict(parent, noisy, "higher", 0.1)[0] == "unresolved"
    # a faster change that fails more cells is never better
    assert verdict(parent, [x * 1.5 for x in parent], "higher", 0.1,
                   more_failures=True)[0] == "unresolved"
