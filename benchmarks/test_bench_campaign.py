"""Campaign runner benchmarks: kernel throughput, speedup, digests, attribution.

Four measurements, all written to the untracked
``.bench_out/BENCH_campaign.json`` (the artifact CI uploads):

* **Kernel throughput** — the Exp. 3, 256-task cell with telemetry off,
  the hot-path cell the DES optimizations target. Gated three ways
  against the committed ``campaign-cell-exp3-256`` baseline (wall time
  recorded before the optimizations): the event count and the cell's
  attribution digest must match exactly (determinism: optimizations
  must not change the simulated history, neither its length nor its
  content) and wall time must not regress past ``REGRESSION_FACTOR``x.
  The event count covers only the three resources the cell observes.
  Set ``REPRO_BENCH_KERNEL_FACTOR`` to additionally require a minimum
  events/sec ratio vs. the baseline — meaningful only on the machine
  that recorded the baseline, since absolute events/sec do not compare
  across hosts.
* **Parallel speedup** — the same small grid run serially and with four
  workers. The >= 2.5x gate applies only when at least four CPUs are
  usable (``sched_getaffinity``); on smaller machines the measured
  speedup and CPU count are recorded without failing, because the
  hardware cannot express the parallelism.
* **Digest equivalence** — serial and parallel campaigns of the same
  seed must produce identical per-repetition telemetry/fault/health
  digests and identical results.
* **Attribution fingerprint** — the causal TTC attribution of a small
  committed grid must match the ``campaign-attribution`` baseline in
  the committed ``benchmarks/BENCH_campaign.json`` exactly (virtual-time
  quantities; host-independent).

Only ``REPRO_BENCH_UPDATE=1`` writes the committed files. Regenerate
the baselines on a quiet machine with::

    REPRO_BENCH_UPDATE=1 PYTHONPATH=src python -m pytest benchmarks/test_bench_campaign.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
from pathlib import Path
from time import perf_counter

from repro.experiments import run_campaign
from repro.experiments.campaign import TABLE1, run_single
from repro.experiments.runner import RunnerStats

_HERE = Path(__file__).parent
BASELINE_PATH = _HERE / "BENCH_baseline.json"
#: the committed ``campaign-attribution`` fingerprint (``repro analyze``
#: reads the same file as its default baseline).
ATTRIBUTION_PATH = _HERE / "BENCH_campaign.json"
RESULTS_PATH = _HERE.parent / ".bench_out" / "BENCH_campaign.json"

#: wall time may legitimately vary with load; only a doubling fails.
REGRESSION_FACTOR = 2.0

#: never fail on absolute wall times below this (loaded-runner noise).
MIN_LIMIT_S = 1.0

KERNEL_KEY = "campaign-cell-exp3-256"

#: committed causal-attribution fingerprint; also the default baseline
#: key of ``repro analyze``.
ATTRIBUTION_KEY = "campaign-attribution"

#: the grid both speedup arms run: 2 experiments x 4 sizes x 2 reps.
SPEEDUP_GRID = dict(
    experiments=(1, 3), task_counts=(8, 16, 32, 64), reps=2,
    campaign_seed=2016,
)

_results: dict = {}


def _flush_results() -> None:
    # Read-merge-write: other writers (the monitor bench, a partial
    # earlier run) keep their keys.
    data: dict = {}
    if RESULTS_PATH.exists():
        with open(RESULTS_PATH, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data.update(_results)
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    with open(RESULTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


def _baseline() -> dict:
    if not BASELINE_PATH.exists():
        return {}
    with open(BASELINE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _peak_rss_mb() -> float:
    """Peak resident set of this process and its (reaped) workers, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KB on Linux


def test_bench_kernel_throughput():
    best_wall, events, digest = None, None, None
    for _ in range(3):
        w0 = perf_counter()
        run = run_single(TABLE1[3], 256, 0, campaign_seed=2016)
        wall = perf_counter() - w0
        events, digest = run.events, run.attribution_digest
        best_wall = wall if best_wall is None else min(best_wall, wall)
    _results[KERNEL_KEY] = {
        "wall_s": best_wall,
        "events": events,
        "events_per_sec": events / best_wall,
        "cpus": _usable_cpus(),
    }
    _flush_results()

    if os.environ.get("REPRO_BENCH_UPDATE"):
        baseline = _baseline()
        baseline[KERNEL_KEY] = {
            "wall_s": round(best_wall, 4),
            "events": events,
            "attribution_digest": digest,
            "events_per_sec": round(events / best_wall, 1),
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
        return

    baseline = _baseline().get(KERNEL_KEY)
    assert baseline is not None, (
        f"no committed baseline for {KERNEL_KEY!r}; run with "
        "REPRO_BENCH_UPDATE=1 to record one"
    )
    # Determinism gate: hot-path optimization must not change the
    # simulated history — the same seed pumps the same events.
    assert events == baseline["events"], (
        f"event count drifted: {events} vs baseline {baseline['events']} — "
        "an optimization changed simulation behaviour"
    )
    assert digest == baseline["attribution_digest"], (
        f"attribution digest drifted: {digest[:16]} vs baseline "
        f"{baseline['attribution_digest'][:16]} — the simulated history "
        "changed"
    )
    limit = max(baseline["wall_s"] * REGRESSION_FACTOR, MIN_LIMIT_S)
    assert best_wall <= limit, (
        f"{KERNEL_KEY}: {best_wall:.3f}s exceeds {REGRESSION_FACTOR}x the "
        f"committed baseline ({baseline['wall_s']:.3f}s)"
    )
    # Same-machine throughput gate (opt-in): the optimized kernel must
    # clear the given fraction of the committed pre-optimization rate.
    factor = os.environ.get("REPRO_BENCH_KERNEL_FACTOR")
    if factor:
        measured = events / best_wall
        floor = baseline["events_per_sec"] * float(factor)
        assert measured >= floor, (
            f"kernel throughput {measured:,.0f} events/s below "
            f"{float(factor):.2f}x the committed baseline "
            f"({baseline['events_per_sec']:,.0f} events/s)"
        )


def test_bench_parallel_speedup():
    w0 = perf_counter()
    serial = run_campaign(**SPEEDUP_GRID)
    serial_wall = perf_counter() - w0

    stats = RunnerStats()
    w0 = perf_counter()
    par = run_campaign(jobs=4, stats=stats, **SPEEDUP_GRID)
    parallel_wall = perf_counter() - w0

    assert not par.errors
    assert len(par.runs) == len(serial.runs)
    cpus = _usable_cpus()
    speedup = serial_wall / parallel_wall
    _results["campaign-parallel"] = {
        "jobs": 4,
        "cpus": cpus,
        "cells": stats.cells,
        "workers": stats.workers,
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "speedup": speedup,
        "serial_events_per_sec": sum(r.events for r in serial.runs)
        / serial_wall,
        "peak_rss_mb": _peak_rss_mb(),
    }
    _flush_results()

    if cpus >= 4:
        assert speedup >= 2.5, (
            f"parallel speedup {speedup:.2f}x on {cpus} CPUs "
            "(expected >= 2.5x with 4 workers)"
        )
    else:
        # Not enough hardware to express the parallelism; the numbers
        # are recorded honestly instead of gated.
        assert speedup > 0.3  # sanity: pool overhead must stay bounded


def test_bench_attribution_fingerprint():
    """The causal attribution of the committed grid must not drift.

    Runs the sentinel grid and compares its fingerprint — per-cell TTC,
    causal component means, shares, throughput, and the combined
    attribution digests — against the committed ``campaign-attribution``
    baseline (the same key ``repro analyze`` gates on). All quantities
    are virtual-time, so unlike the wall-clock gates this comparison is
    exact on any machine.
    """
    from repro.experiments import campaign_fingerprint, compare_fingerprints

    grid = dict(
        experiments=(1, 3), task_counts=(8, 16), reps=2,
        campaign_seed=2016,
    )
    fingerprint = campaign_fingerprint(run_campaign(**grid))

    if os.environ.get("REPRO_BENCH_UPDATE"):
        data = {}
        if ATTRIBUTION_PATH.exists():
            with open(ATTRIBUTION_PATH, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        data[ATTRIBUTION_KEY] = fingerprint
        with open(ATTRIBUTION_PATH, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
        return

    with open(ATTRIBUTION_PATH, "r", encoding="utf-8") as fh:
        baseline = json.load(fh).get(ATTRIBUTION_KEY)
    assert baseline is not None, (
        f"no committed {ATTRIBUTION_KEY!r} baseline in {ATTRIBUTION_PATH}; "
        "run with REPRO_BENCH_UPDATE=1 to record one"
    )
    findings = compare_fingerprints(fingerprint, baseline)
    assert not findings, "attribution drift vs committed baseline:\n" + (
        "\n".join(f.describe() for f in findings)
    )
    assert fingerprint["digest"] == baseline["digest"], (
        "fingerprint digest drifted without tripping tolerance gates — "
        "a component moved subtly; inspect with `repro analyze`"
    )


def test_bench_digest_equivalence():
    grid = dict(
        experiments=(1, 3), task_counts=(8,), reps=2, campaign_seed=2016,
        collect_digests=True,
    )
    serial = run_campaign(**grid)
    par = run_campaign(jobs=4, **grid)
    assert not par.errors

    def canon(runs):
        return json.dumps(
            [dataclasses.asdict(r) for r in runs],
            sort_keys=True, default=str,
        )

    serial_digests = [r.digest for r in serial.runs]
    parallel_digests = [r.digest for r in par.runs]
    assert all(serial_digests)
    assert serial_digests == parallel_digests
    assert canon(serial.runs) == canon(par.runs)
    _results["campaign-digests"] = {
        "cells": len(serial.runs),
        "identical": True,
        "digests": serial_digests,
    }
    _flush_results()
