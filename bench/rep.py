"""One repetition of one workload, in a fresh interpreter.

``python -m bench.rep SPEC.json`` runs the workload the spec names,
through the program's public entry points only, and writes a JSON
result next to the spec: per-cell wall time, digest and outcome, the
reference kernel's time around each cell (:mod:`bench.hostspeed`), the
set-up time, peak memory and, when traced, the spans of every layer.
The walls it writes exclude the time spent running the kernel.
:mod:`bench.harness` starts one such process per repetition.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from .hostspeed import HostSpeed
from .trace import READ_BACK, Tracer, instrument
from .workloads import Workload


def check_run(run, cell) -> Optional[str]:
    """Why a completed cell's result is wrong, or None when it is sound."""
    if (run.exp_id, run.n_tasks, run.rep) != tuple(cell):
        return f"result is for cell {(run.exp_id, run.n_tasks, run.rep)}"
    if run.units_done != run.n_tasks:
        return f"{run.units_done}/{run.n_tasks} units done"
    if not (math.isfinite(run.ttc) and run.ttc > 0):
        return f"TTC {run.ttc}"
    parts = sum(v for _, v in run.attribution)
    if abs(parts - run.ttc) > 1e-6 * run.ttc:
        return f"attribution sums to {parts}, TTC is {run.ttc}"
    digest = run.attribution_digest
    if len(digest) != 64 or set(digest) - set("0123456789abcdef"):
        return f"malformed attribution digest {digest!r}"
    return None


class Recorder:
    """Per-cell outcomes, and the set-up time taken at the first one.

    Each cell also gets the reference kernel's time around it: the mean
    of the last :class:`HostSpeed` measurement before it completed and
    the first one after (see :mod:`bench.hostspeed`).
    """

    def __init__(self, spawn_t: float, speed: HostSpeed) -> None:
        self.spawn_t = spawn_t
        self.speed = speed
        self.setup_s: Optional[float] = None
        self.setup_kernel_s: Optional[float] = None
        #: cell -> (wall, index of the kernel measurement before it).
        self.walls: Dict[tuple, Tuple[float, int]] = {}
        self.cells: List[Dict[str, Any]] = []

    def completed(self, cell, wall: float) -> None:
        """A cell finished (either way) ``wall`` seconds after it began."""
        samples = self.speed.samples
        if self.setup_s is None:
            self.setup_s = (
                time.monotonic() - wall - self.spawn_t - self.speed.spent
            )
            self.setup_kernel_s = statistics.fmean(samples)
        self.walls[tuple(cell)] = (wall, len(samples) - 1)

    def _timing(self, cell) -> Dict[str, float]:
        wall, before = self.walls.get(tuple(cell), (0.0, 0))
        samples = self.speed.samples
        return {
            "wall": wall,
            "kernel_s": statistics.fmean(samples[before:before + 2]),
        }

    def ok(self, run) -> None:
        cell = (run.exp_id, run.n_tasks, run.rep)
        self.cells.append({
            "cell": list(cell),
            **self._timing(cell),
            "ok": True,
            "digest": run.attribution_digest,
            "events": run.events,
            "check": check_run(run, cell),
        })

    def failed(self, cell, error: str) -> None:
        self.cells.append({
            "cell": list(cell),
            **self._timing(cell),
            "ok": False,
            "error": error,
        })


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_loop(wl: Workload, seed: int, rec: Recorder) -> None:
    """``run_single`` per cell; an exception costs that cell only."""
    from repro.experiments import TABLE1, campaign

    rec.speed.measure()
    for cell in wl.cells():
        exp_id, n_tasks, rep = cell
        t0 = time.monotonic()
        try:
            # looked up per call: the tracer and the tests replace it
            run = campaign.run_single(
                TABLE1[exp_id], n_tasks, rep, campaign_seed=seed
            )
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            rec.completed(cell, time.monotonic() - t0)
            rec.speed.measure()
            rec.failed(cell, _error(exc))
            continue
        rec.completed(cell, time.monotonic() - t0)
        rec.speed.measure()
        rec.ok(run)


def run_campaign_rep(
    wl: Workload, seed: int, rec: Recorder, scratch: str, tracer
) -> Tuple[float, List[str]]:
    """``run_campaign`` with a store and a ledger, then the store read back.

    Returns the campaign's wall time and every way in which the store
    disagrees with the campaign ``run_campaign`` returned.
    """
    from repro.experiments import (
        CampaignStore,
        RunLedger,
        campaign_fingerprint,
        campaign_fingerprint_from_store,
        run_campaign,
    )

    def progress(p) -> None:
        rec.completed(p.cell, p.wall_s)
        if wl.jobs == 1:
            rec.speed.measure()

    path = os.path.join(scratch, "campaign.sqlite")
    store = CampaignStore(path)
    ledger = RunLedger(path=os.path.join(scratch, "ledger.ndjson"), store=store)
    result = None
    aborted = ""
    rec.speed.measure()
    w0 = time.monotonic()
    spent0 = rec.speed.spent
    try:
        result = run_campaign(
            experiments=wl.experiments, task_counts=wl.task_counts,
            reps=wl.reps, campaign_seed=seed, jobs=wl.jobs,
            on_progress=progress, ledger=ledger, store=store,
        )
    except Exception as exc:  # noqa: BLE001 - the serial executor aborts
        aborted = _error(exc)
    finally:
        ledger.close()
        store.close()
    campaign_wall = time.monotonic() - w0 - (rec.speed.spent - spent0)
    if wl.jobs > 1:
        # the workers' cells were not bracketed one by one: they take
        # the kernel's times before and after the whole campaign.
        rec.speed.measure()
    with tracer.span(READ_BACK) if tracer else nullcontext():
        with CampaignStore(path, readonly=True) as ro:
            stored_fp = campaign_fingerprint_from_store(ro)
            loaded = ro.load_campaign()
    checks: List[str] = []
    if result is None:
        # the serial executor stops at the first exception; the store
        # holds every cell committed before it.
        for run in loaded.runs:
            rec.ok(run)
        done = {(r.exp_id, r.n_tasks, r.rep) for r in loaded.runs}
        pending = [c for c in wl.cells() if c not in done]
        if pending:
            rec.failed(pending[0], aborted)
        else:
            checks.append(f"run_campaign raised after its last cell: {aborted}")
        return campaign_wall, checks
    for run in result.runs:
        rec.ok(run)
    for e in result.errors:
        rec.failed((e.exp_id, e.n_tasks, e.rep), e.error)
    if stored_fp["digest"] != campaign_fingerprint(result)["digest"]:
        checks.append("store fingerprint differs from the returned campaign")
    if [r.attribution_digest for r in loaded.runs] != [
        r.attribution_digest for r in result.runs
    ]:
        checks.append("store read-back differs from the returned campaign")
    return campaign_wall, checks


def run_rep(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one repetition as ``spec`` describes; returns its result."""
    speed = HostSpeed()
    speed.measure()  # before the program's imports, which set-up covers
    import repro
    from repro.cluster.workload import stream_cache_stats

    wl = Workload.from_dict(spec["workload"])
    rec = Recorder(spec["spawn_t"], speed)
    tracer = Tracer() if spec["trace"] else None
    remove = (
        instrument(tracer, cells=wl.jobs == 1) if tracer else (lambda: None)
    )
    checks: List[str] = []
    try:
        with tempfile.TemporaryDirectory(dir=spec["scratch"]) as scratch:
            w0 = time.monotonic()
            spent0 = speed.spent
            if wl.entry == "loop":
                run_loop(wl, spec["seed"], rec)
                campaign_wall = time.monotonic() - w0 - (speed.spent - spent0)
            else:
                campaign_wall, checks = run_campaign_rep(
                    wl, spec["seed"], rec, scratch, tracer
                )
            wall = time.monotonic() - w0 - (speed.spent - spent0)
    finally:
        remove()
    cache = stream_cache_stats()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "repro": os.path.abspath(repro.__file__),
        "workload": wl.name,
        "seed": spec["seed"],
        "trace": bool(tracer),
        "setup_s": rec.setup_s,
        "setup_kernel_s": rec.setup_kernel_s,
        "kernel_samples": speed.samples,
        "wall_s": wall,
        "campaign_wall_s": campaign_wall,
        "jobs": wl.jobs,
        "checks": checks,
        "cells": rec.cells,
        "peak_rss_mb": peak_kb / 1024.0,
        "stream_cache": {"hits": cache["hits"], "misses": cache["misses"]},
        "spans": tracer.to_list() if tracer else [],
    }


def main(argv: List[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_rep(spec)
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
