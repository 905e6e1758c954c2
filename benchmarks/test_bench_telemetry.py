"""Telemetry overhead benchmarks with a committed regression gate.

Times three scenarios of the same 64-task execution — hub disabled, hub
enabled, hub enabled with the kernel profiler — and writes the measured
wall seconds and events/sec to the untracked
``.bench_out/BENCH_telemetry.json`` (the artifact CI uploads). Each scenario then gates against the committed
baseline in ``benchmarks/BENCH_baseline.json``: more than 2x the
baseline wall time fails the bench.

Regenerate the baseline on a quiet machine with::

    REPRO_BENCH_UPDATE=1 PYTHONPATH=src python -m pytest benchmarks/test_bench_telemetry.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

import pytest

from repro.core import Binding, PlannerConfig
from repro.experiments import build_environment
from repro.skeleton import SkeletonAPI, paper_skeleton

_HERE = Path(__file__).parent
BASELINE_PATH = _HERE / "BENCH_baseline.json"
RESULTS_PATH = _HERE.parent / ".bench_out" / "BENCH_telemetry.json"

#: wall time may legitimately vary with load; only a doubling fails.
REGRESSION_FACTOR = 2.0

#: scenarios run in tens of milliseconds, so a raw 2x gate would flake on
#: loaded CI runners; never fail below this absolute wall time.
MIN_LIMIT_S = 1.0

#: scenario name -> (telemetry enabled, profiler attached)
SCENARIOS = {
    "execute-64-plain": (False, False),
    "execute-64-telemetry": (True, False),
    "execute-64-profiled": (True, True),
}

_results: dict = {}


def _run_scenario(telemetry: bool, profile: bool) -> dict:
    env = build_environment(
        seed=11, resources=("stampede-sim", "gordon-sim"), telemetry=telemetry
    )
    profiler = env.sim.telemetry.attach_profiler() if profile else None
    env.warm_up(3600.0)
    w0 = perf_counter()
    report = env.execution_manager.execute(
        SkeletonAPI(paper_skeleton(64, gaussian=False), seed=1),
        PlannerConfig(binding=Binding.LATE, n_pilots=2),
    )
    wall_s = perf_counter() - w0
    assert report.decomposition.units_done == 64
    out = {
        "wall_s": wall_s,
        "events": env.sim.events_processed,
        "events_per_sec": env.sim.events_processed / wall_s,
    }
    if profiler is not None:
        out["profiled_events_per_sec"] = profiler.events_per_sec()
        out["attributed_fraction"] = profiler.attributed_fraction()
    if telemetry:
        out["spans"] = len(env.sim.telemetry.spans)
    return out


def _baseline() -> dict:
    if not BASELINE_PATH.exists():
        return {}
    with open(BASELINE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _flush_results() -> None:
    """Write whatever has been measured so far (also on partial failure)."""
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    with open(RESULTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(_results, fh, indent=1, sort_keys=True)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_bench_telemetry_scenario(scenario):
    telemetry, profile = SCENARIOS[scenario]
    _results[scenario] = _run_scenario(telemetry, profile)
    _flush_results()

    if os.environ.get("REPRO_BENCH_UPDATE"):
        baseline = _baseline()
        baseline[scenario] = {"wall_s": _results[scenario]["wall_s"]}
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
        return

    baseline = _baseline().get(scenario)
    assert baseline is not None, (
        f"no committed baseline for {scenario!r}; run with "
        "REPRO_BENCH_UPDATE=1 to record one"
    )
    wall = _results[scenario]["wall_s"]
    limit = max(baseline["wall_s"] * REGRESSION_FACTOR, MIN_LIMIT_S)
    assert wall <= limit, (
        f"{scenario}: {wall:.2f}s exceeds {REGRESSION_FACTOR}x the "
        f"committed baseline ({baseline['wall_s']:.2f}s); investigate or "
        "re-baseline with REPRO_BENCH_UPDATE=1"
    )


def test_bench_profiler_attribution():
    """The profiler must attribute >= 95% of kernel wall time by name."""
    stats = _results.get("execute-64-profiled") or _run_scenario(True, True)
    assert stats["attributed_fraction"] >= 0.95
