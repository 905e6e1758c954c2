"""Run repetitions in fresh interpreters; gate digests; report metrics.

The load is closed-loop: one process starts repetitions back to back,
each a fresh ``python -m bench.rep`` process, round-robin across the
workloads (A B C A B C ...). Timed repetitions run untraced; one extra
traced repetition per workload gives the per-layer numbers. Every time
reported is scaled to a reference host speed, which the repetitions
measure between cells (:mod:`bench.hostspeed`).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from . import OUT_ROOT, ROOT, SRC
from .hostspeed import REFERENCE_KERNEL_S, scale
from .layers import layer_metrics
from .workloads import P90_MIN_SAMPLES, Workload, rep_seed

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference_digests.json")

#: end-to-end metrics: name -> unit.
E2E_UNITS = {
    "cells_per_s": "cells/s",
    "cell_wall_p50_s": "s",
    "cell_wall_p90_s": "s",
    "cell_error_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: per-layer metrics: name -> unit.
LAYER_UNITS = {
    "des.kernel_self_s": "s",
    "bench.kernel_self_share": "fraction",
    "des.events_warmup": "count",
    "des.events_execute": "count",
    "des.rng_draws": "count",
    "des.events_per_s": "events/s",
    "des.glue_s": "s",
    "experiments.warmup_s": "s",
    "experiments.build_s": "s",
    "cluster.prime_s": "s",
    "cluster.callback_s": "s",
    "cluster.dispatches": "count",
    "cluster.stream_cache_hit_ratio": "fraction",
    "cluster.stream_cache_lookups": "count",
    "pilot.callback_s": "s",
    "pilot.unit_passes": "count",
    "net.callback_s": "s",
    "net.transfers": "count",
    "core.execute_s": "s",
    "core.callback_s": "s",
    "skeleton.build_s": "s",
    "telemetry.attribution_s": "s",
    "experiments.cell_glue_s": "s",
    "experiments.store_write_s": "s",
    "experiments.ledger_s": "s",
    "experiments.store_read_s": "s",
    "experiments.parallel_efficiency": "fraction",
    "bench.trace_overhead_fraction": "fraction",
    "bench.layer_coverage": "fraction",
    "bench.unscaled_cells_per_s": "cells/s",
    "bench.host_slowdown": "ratio",
}

#: timed repetitions per workload.
REPS = 3


class BenchError(RuntimeError):
    """The benchmark could not measure (no program, a repetition died)."""


def cell_key(seed: int, cell: Sequence[int]) -> str:
    """``"<campaign seed>:<exp>/<n_tasks>/<rep>"``, the key of a digest."""
    return f"{int(seed)}:" + "/".join(str(int(x)) for x in cell)


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Report:
    """Everything one benchmark invocation measured and checked."""

    seed: int
    metrics: Dict[str, Dict[str, Dict[str, Any]]] = field(default_factory=dict)
    counts: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    out: str = ""

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def attempted(self) -> int:
        return sum(c["attempted"] for c in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(c["failed"] for c in self.counts.values())


# -- repetitions ---------------------------------------------------------------


def spawn_rep(
    wl: Workload, seed: int, trace: bool, out: str, index: int
) -> Dict[str, Any]:
    """Run one repetition at campaign ``seed`` in a fresh interpreter."""
    stem = os.path.join(out, f"rep{index:03d}-{wl.name}{'-traced' if trace else ''}")
    spec = {
        "workload": wl.to_dict(),
        "seed": seed,
        "trace": trace,
        "scratch": out,
        "result": stem + ".json",
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # the child subtracts this from its first cell's completion time;
    # CLOCK_MONOTONIC is shared by every process on the host.
    spec["spawn_t"] = time.monotonic()
    with open(stem + ".spec.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.rep", stem + ".spec.json"],
        cwd=ROOT, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL,
    )
    try:
        code = proc.wait()
    finally:
        # interrupted: stop the repetition rather than leave it running
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not os.path.exists(spec["result"]):
        raise BenchError(f"{wl.name} repetition {index} exited with code {code}")
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh)


def _ok_cells(result: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [c for c in result["cells"] if c["ok"]]


# -- metrics -------------------------------------------------------------------


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def cell_wall(c: Dict[str, Any]) -> float:
    """A cell's wall at the reference host speed (:mod:`bench.hostspeed`)."""
    return c["wall"] * scale(c["kernel_s"])


def rep_wall(r: Dict[str, Any]) -> float:
    """A repetition's wall at the reference host speed.

    It is scaled by the wall-weighted mean of its cells' factors, so the
    store writes and read-back between cells take the speed of the cells
    around them.
    """
    raw = sum(c["wall"] for c in r["cells"])
    if raw <= 0:
        return r["wall_s"] * scale(statistics.median(r["kernel_samples"]))
    return r["wall_s"] * sum(cell_wall(c) for c in r["cells"]) / raw


def host_slowdown(reps: List[Dict[str, Any]]) -> float:
    """The median kernel time of ``reps`` over the reference: 1.5 means
    the host ran 1.5 times slower than the reference speed."""
    return statistics.median(
        k for r in reps for k in r["kernel_samples"]
    ) / REFERENCE_KERNEL_S


def cells_per_s(reps: List[Dict[str, Any]], scaled: bool = True) -> float:
    """Correct completed cells per second of measured wall, pooled.

    The repetitions run different cells, so the pooled ratio averages
    over all of them where a median of per-repetition rates would rest
    on the cells of one. ``scaled=False`` gives the rate in plain host
    seconds.
    """
    wall = sum(rep_wall(r) if scaled else r["wall_s"] for r in reps)
    return sum(len(_ok_cells(r)) for r in reps) / wall


def end_to_end(timed: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics of the timed repetitions.

    Times are at the reference host speed. Rates and cell walls are
    pooled over the repetitions; set-up time and peak memory are medians
    over them. The p90 needs :data:`P90_MIN_SAMPLES` pooled cells and is
    omitted below that.
    """
    walls = [cell_wall(c) for r in timed for c in _ok_cells(r)]
    attempted = sum(len(r["cells"]) for r in timed)
    values = {
        "cells_per_s": cells_per_s(timed),
        "cell_error_rate": (attempted - len(walls)) / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    if walls:
        values["cell_wall_p50_s"] = statistics.median(walls)
    if len(walls) >= P90_MIN_SAMPLES:
        values["cell_wall_p90_s"] = statistics.quantiles(walls, n=10)[-1]
    setups = [
        r["setup_s"] * scale(r["setup_kernel_s"])
        for r in timed if r["setup_s"] is not None
    ]
    if setups:
        values["setup_s"] = statistics.median(setups)
    return {
        name: _metric(values[name], unit)
        for name, unit in E2E_UNITS.items() if name in values
    }


def per_layer(
    timed: List[Dict[str, Any]], traced: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics: the traced repetition, plus ratios of the timed."""
    values = layer_metrics(traced["spans"], len(_ok_cells(traced)))
    ok = [c for r in timed for c in _ok_cells(r)]
    walls = sum(cell_wall(c) for c in ok)
    values["des.events_per_s"] = (
        sum(c["events"] for c in ok) / walls if walls else 0.0
    )
    values["bench.unscaled_cells_per_s"] = cells_per_s(timed, scaled=False)
    values["bench.host_slowdown"] = host_slowdown(timed)
    values["experiments.parallel_efficiency"] = statistics.median(
        sum(c["wall"] for c in _ok_cells(r)) / (r["jobs"] * r["campaign_wall_s"])
        for r in timed
    )
    cache = traced["stream_cache"]
    lookups = cache["hits"] + cache["misses"]
    values["cluster.stream_cache_hit_ratio"] = (
        cache["hits"] / lookups if lookups else 0.0
    )
    values["cluster.stream_cache_lookups"] = lookups
    # the traced repetition re-runs the cells of the first timed one
    traced_rate = cells_per_s([traced])
    values["bench.trace_overhead_fraction"] = (
        cells_per_s(timed[:1]) / traced_rate - 1.0 if traced_rate else 0.0
    )
    return {name: _metric(values[name], unit) for name, unit in LAYER_UNITS.items()}


# -- correctness ---------------------------------------------------------------


def verify(
    results: List[Dict[str, Any]], reference: Dict[str, Any]
) -> tuple:
    """Problems found in ``results``, and the per-cell digests they agree on.

    A completed cell must pass the child's result checks, give the same
    digest in every process that ran it, and match the reference digest
    when the reference holds it (the reference is for one campaign
    seed). Failed cells are counted, not judged here.
    """
    problems: List[str] = []
    digests: Dict[str, str] = {}
    ref = reference["cells"]
    src = os.path.realpath(SRC)
    for r in results:
        if not os.path.realpath(r["repro"]).startswith(src + os.sep):
            problems.append(f"{r['workload']}: imported repro from {r['repro']}")
        problems.extend(f"{r['workload']}: {msg}" for msg in r["checks"])
        for c in _ok_cells(r):
            key = cell_key(r["seed"], c["cell"])
            if c["check"]:
                problems.append(f"{r['workload']} cell {key}: {c['check']}")
            seen = digests.setdefault(key, c["digest"])
            if seen != c["digest"]:
                problems.append(
                    f"{r['workload']} cell {key}: digest {c['digest'][:16]} "
                    f"differs from {seen[:16]} in another process"
                )
            if key in ref and ref[key] != c["digest"]:
                problems.append(
                    f"{r['workload']} cell {key}: digest {c['digest'][:16]} "
                    f"differs from the reference {ref[key][:16]}"
                )
    return problems, digests


# -- the benchmark -------------------------------------------------------------


def run_benchmark(
    workloads: Sequence[Workload],
    seed: int,
    reps: int = REPS,
    trace: bool = False,
    out: Optional[str] = None,
    reference: Optional[Dict[str, Any]] = None,
) -> Report:
    """Measure ``workloads`` in a run at ``seed``.

    Each workload runs ``reps`` timed repetitions, round-robin;
    repetition ``k`` runs its cells at campaign seed
    ``rep_seed(seed, k)``. With ``trace`` each workload then runs one
    traced repetition of repetition 0's cells, which gives the per-layer
    metrics.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {SRC}/repro is missing")
    if reference is None:
        reference = load_reference()
    if out is None:
        os.makedirs(OUT_ROOT, exist_ok=True)
        out = tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT)
    os.makedirs(out, exist_ok=True)
    index = 0

    def spawn(wl: Workload, k: int, traced: bool) -> Dict[str, Any]:
        nonlocal index
        index += 1
        return spawn_rep(wl, rep_seed(seed, k), traced, out, index)

    timed: Dict[str, List[Dict[str, Any]]] = {w.name: [] for w in workloads}
    for k in range(reps):
        for wl in workloads:
            timed[wl.name].append(spawn(wl, k, False))
    traced = {wl.name: spawn(wl, 0, True) for wl in workloads} if trace else {}

    report = Report(seed=seed, out=out)
    everything = [r for rs in timed.values() for r in rs] + list(traced.values())
    report.problems, report.digests = verify(everything, reference)
    for wl in workloads:
        rs = timed[wl.name]
        metrics = end_to_end(rs)
        if trace:
            metrics.update(per_layer(rs, traced[wl.name]))
        report.metrics[wl.name] = metrics
        report.counts[wl.name] = {
            "reps": len(rs),
            "rep_cells_per_s": [cells_per_s([r]) for r in rs],
            "cells": sum(len(_ok_cells(r)) for r in rs),
            "attempted": sum(len(r["cells"]) for r in rs),
            "failed": sum(len(r["cells"]) - len(_ok_cells(r)) for r in rs),
            "campaign_seeds": [r["seed"] for r in rs],
            "host_slowdown": host_slowdown(rs),
            "unscaled_cells_per_s": cells_per_s(rs, scaled=False),
            "failures": [
                f"{cell_key(r['seed'], c['cell'])}: {c['error']}"
                for r in rs for c in r["cells"] if not c["ok"]
            ],
        }
    _write_outputs(report, traced)
    return report


def _write_outputs(report: Report, traced: Dict[str, Dict[str, Any]]) -> None:
    with open(os.path.join(report.out, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": report.seed, "cells": report.digests}, fh,
                  indent=1, sort_keys=True)
    summary = {
        "seed": report.seed,
        "correct": report.correct,
        "problems": report.problems,
        "metrics": report.metrics,
        "counts": report.counts,
    }
    with open(os.path.join(report.out, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    for name, r in traced.items():
        with open(os.path.join(report.out, f"spans-{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(r["spans"], fh)


# -- output --------------------------------------------------------------------


def render(report: Report) -> str:
    """The human-readable report: every metric by name, with its unit."""
    lines = [f"seed {report.seed}; outputs in {report.out}"]
    for name, metrics in report.metrics.items():
        c = report.counts[name]
        seeds = ", ".join(str(s) for s in c["campaign_seeds"])
        lines.append(
            f"\n{name}: {c['reps']} timed repetition(s) at campaign seeds "
            f"{seeds}; {c['cells']} cells completed, {c['failed']} of "
            f"{c['attempted']} failed"
        )
        lines.append(
            f"  host {c['host_slowdown']:.3g}x the reference kernel time; "
            f"times below are scaled to the reference speed "
            f"({c['unscaled_cells_per_s']:.4g} cells/s unscaled)"
        )
        lines.extend(f"  failed {f}" for f in c["failures"])
        for metric, m in metrics.items():
            note = ""
            if metric == "cells_per_s":
                note = f"  (pooled over {c['reps']} repetitions)"
            elif metric in ("setup_s", "peak_rss_mb"):
                note = f"  (median of {c['reps']} repetitions)"
            elif metric.startswith("cell_wall_"):
                note = f"  (n={c['cells']} pooled cells)"
            elif metric == "cell_error_rate":
                note = f"  ({c['failed']}/{c['attempted']})"
            lines.append(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}{note}")
            if metric == "cell_wall_p50_s" and "cell_wall_p90_s" not in metrics:
                lines.append(
                    f"  {'cell_wall_p90_s':<34} {'omitted':>14} "
                    f"(fewer than {P90_MIN_SAMPLES} cells)"
                )
    if report.problems:
        lines.append(f"\nINCORRECT: {len(report.problems)} problem(s)")
        lines.extend(f"  {p}" for p in report.problems[:50])
    else:
        lines.append("\nall completed cells passed the digest gate")
    return "\n".join(lines)


def listed_metrics(trace: bool) -> List[str]:
    """The metrics ``BENCHMARK.json`` lists for a run: per-layer when
    traced, end-to-end otherwise."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(report: Report, trace: bool) -> str:
    """The last line of output: one JSON object with the listed metrics.

    With one workload the metrics keep their names; with several each is
    prefixed by its workload.
    """
    names = listed_metrics(trace)
    single = len(report.metrics) == 1
    metrics = {}
    for wl, ms in report.metrics.items():
        for name in names:
            if name in ms:
                metrics[name if single else f"{wl}/{name}"] = ms[name]
    return json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    })
