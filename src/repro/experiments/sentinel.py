"""The regression sentinel: is this campaign still the campaign we committed?

``repro analyze`` needs two judgements, both cheap and deterministic:

* **against a baseline** — compare a campaign's per-cell TTC, causal
  component means, shares, and throughput to a committed fingerprint
  (stored under the ``campaign-attribution`` key of
  ``benchmarks/BENCH_campaign.json``, same conventions as the other
  bench baselines) and fail on drift beyond tolerance;
* **within itself** — robust z-scores (median/MAD) over per-cell TTC
  repetitions and across-cell component shares, flagging outlier cells
  that merit a look even when no baseline exists.

All statistics work on the *exact* causal partition recorded per run
(``RunResult.attribution``), falling back to the legacy overlapping
decomposition fields for campaign files written before PR 5.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..telemetry.causality import COMPONENTS
from ..telemetry.digest import sha256_digest
from .campaign import CampaignResult, RunResult

log = logging.getLogger(__name__)

FINGERPRINT_FORMAT = 1

#: modified z-score threshold (the classic Iglewicz-Hoaglin cut).
Z_THRESHOLD = 3.5

#: relative drift tolerance for time-like metrics; an injected >= 20%
#: Tw regression must trip, ordinary float noise must not.
REL_TOL = 0.10

#: absolute share drift (in TTC fraction) below which a component's
#: share change is noise regardless of its relative size.
SHARE_ABS_TOL = 0.02


def _components_of(run: RunResult) -> Dict[str, float]:
    """The run's exact partition, or a legacy approximation of it."""
    if run.attribution:
        return dict(run.attribution)
    # pre-attribution files: overlapping decomposition fields, idle
    # unknown. Good enough for coarse baseline comparison.
    return {
        "tw": run.tw, "tr": 0.0, "tx": run.tx,
        "ts": run.ts, "trp": run.trp, "idle": 0.0,
    }


def robust_z(values: Sequence[float]) -> List[float]:
    """Modified z-scores via median/MAD; zeros when MAD vanishes.

    ``0.6745 * (x - median) / MAD`` — the standard-normal consistency
    constant makes the scores comparable to ordinary z-scores. With a
    zero MAD (constant or near-constant samples) every score is 0: a
    degenerate sample has no outliers by this test.
    """
    vals = [float(v) for v in values]
    if not vals:
        return []
    med = _median(vals)
    mad = _median([abs(v - med) for v in vals])
    if mad <= 0:
        return [0.0] * len(vals)
    return [0.6745 * (v - med) / mad for v in vals]


def _median(vals: Sequence[float]) -> float:
    s = sorted(vals)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


# -- fingerprints --------------------------------------------------------------


def mean_shares(
    runs: Sequence[Tuple[float, Dict[str, float]]],
) -> Dict[str, float]:
    """The TTC component shares of a set of runs, given as ``(ttc,
    component seconds)``: per component, the mean over the runs of its
    share of the run's TTC. A run without TTC counts, with no share.
    The fingerprint's cell ``shares`` and the live monitor's shares
    both come from here, so ``analyze``, ``report``, ``watch`` and
    ``/metrics`` mean one number by "TTC component share"."""
    sums = {name: 0.0 for name in COMPONENTS}
    for ttc, comps in runs:
        if ttc > 0:
            for name in COMPONENTS:
                sums[name] += comps.get(name, 0.0) / ttc
    return {name: sums[name] / len(runs) for name in COMPONENTS}


def _cell_fingerprint(runs: Sequence[RunResult]) -> Dict[str, Any]:
    """One cell's fingerprint entry from its repetitions (reps ascending)."""
    comp_sums = {name: 0.0 for name in COMPONENTS}
    ttc_sum = 0.0
    thr_sum = 0.0
    parts = []
    for run in runs:
        comps = _components_of(run)
        parts.append((run.ttc, comps))
        ttc_sum += run.ttc
        if run.ttc > 0:
            thr_sum += run.units_done / (run.ttc / 3600.0)
        for name in COMPONENTS:
            comp_sums[name] += comps.get(name, 0.0)
    n = len(runs)
    return {
        "n": n,
        "ttc_mean": ttc_sum / n,
        "throughput": thr_sum / n,
        "components": {
            name: comp_sums[name] / n for name in COMPONENTS
        },
        "shares": mean_shares(parts),
        "attribution_digest": sha256_digest(
            [r.attribution_digest for r in runs]
        ),
    }


def campaign_fingerprint(result: CampaignResult) -> Dict[str, Any]:
    """A compact, committable summary of a campaign's shape.

    Per ``"exp:n_tasks"`` cell: repetition count, mean TTC, mean
    throughput (tasks per simulated hour), per-component mean seconds
    and mean shares from the causal partition, and the cell's combined
    attribution digest. The top-level ``digest`` hashes the canonical
    rendering, so two identical campaigns fingerprint identically.
    """
    cells: Dict[str, Any] = {}
    by_cell: Dict[Tuple[int, int], List[RunResult]] = {}
    for run in result.runs:
        by_cell.setdefault((run.exp_id, run.n_tasks), []).append(run)
    for (exp_id, n_tasks), runs in sorted(by_cell.items()):
        cells[f"{exp_id}:{n_tasks}"] = _cell_fingerprint(
            sorted(runs, key=lambda r: r.rep)
        )
    fp: Dict[str, Any] = {
        "format": FINGERPRINT_FORMAT,
        "meta": dict(result.meta),
        "errors": len(result.errors),
        "cells": cells,
    }
    fp["digest"] = sha256_digest(fp)
    return fp


def campaign_fingerprint_from_store(store) -> Dict[str, Any]:
    """:func:`campaign_fingerprint` of the campaign ``store`` holds."""
    return campaign_fingerprint(store.load_campaign())


@dataclass(frozen=True)
class Drift:
    """One metric of one cell moving beyond tolerance vs the baseline."""

    cell: str
    metric: str
    baseline: float
    current: float

    @property
    def rel_change(self) -> float:
        if self.baseline == 0:
            return math.inf if self.current else 0.0
        return (self.current - self.baseline) / abs(self.baseline)

    def describe(self) -> str:
        return (
            f"cell {self.cell}: {self.metric} "
            f"{self.baseline:.3f} -> {self.current:.3f} "
            f"({self.rel_change:+.1%})"
        )


def compare_fingerprints(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    rel_tol: float = REL_TOL,
) -> List[Drift]:
    """Drift findings of ``current`` against a committed ``baseline``.

    Time-like metrics (TTC, Tw/Tr/Tx/Ts/Trp means) fail on *increases*
    beyond ``rel_tol`` — getting faster is not a regression. Throughput
    fails on decreases. Component shares fail on either direction
    beyond ``rel_tol`` when the absolute move also exceeds
    ``SHARE_ABS_TOL``. Cells present in the baseline but missing from
    the current campaign (or vice versa) are reported as drift too.
    """
    findings: List[Drift] = []
    b_cells = baseline.get("cells", {})
    c_cells = current.get("cells", {})
    for cell in sorted(set(b_cells) | set(c_cells)):
        if cell not in c_cells:
            findings.append(Drift(cell, "missing-from-current", 1.0, 0.0))
            continue
        if cell not in b_cells:
            findings.append(Drift(cell, "missing-from-baseline", 0.0, 1.0))
            continue
        b, c = b_cells[cell], c_cells[cell]
        checks: List[Tuple[str, float, float, str]] = [
            ("ttc_mean", b.get("ttc_mean", 0.0), c.get("ttc_mean", 0.0),
             "increase"),
            ("throughput", b.get("throughput", 0.0),
             c.get("throughput", 0.0), "decrease"),
        ]
        for name in COMPONENTS:
            checks.append((
                f"{name}_mean",
                b.get("components", {}).get(name, 0.0),
                c.get("components", {}).get(name, 0.0),
                "increase",
            ))
        for metric, bv, cv, direction in checks:
            if bv == 0 and cv == 0:
                continue
            base = abs(bv) if bv else max(abs(cv), 1e-12)
            rel = (cv - bv) / base
            if direction == "increase" and rel > rel_tol:
                findings.append(Drift(cell, metric, bv, cv))
            elif direction == "decrease" and rel < -rel_tol:
                findings.append(Drift(cell, metric, bv, cv))
        b_shares = b.get("shares", {})
        c_shares = c.get("shares", {})
        for name in COMPONENTS:
            bs = b_shares.get(name, 0.0)
            cs = c_shares.get(name, 0.0)
            if abs(cs - bs) <= SHARE_ABS_TOL:
                continue
            base = bs if bs else max(cs, 1e-12)
            if abs(cs - bs) / base > rel_tol:
                findings.append(Drift(cell, f"{name}_share", bs, cs))
    for f in findings:
        log.warning("drift: %s", f.describe())
    return findings


# -- within-campaign anomaly detection -----------------------------------------


@dataclass(frozen=True)
class Anomaly:
    """An outlier repetition or cell within one campaign."""

    kind: str          # "ttc-outlier" | "share-outlier"
    cell: str
    detail: str
    z: float

    def describe(self) -> str:
        return f"{self.kind} in cell {self.cell}: {self.detail} (z={self.z:+.1f})"


def detect_anomalies(result: CampaignResult) -> List[Anomaly]:
    """Robust-z anomaly scan of one campaign, no baseline needed: a
    modified z-score of at least ``Z_THRESHOLD`` flags.

    Two passes: per-cell TTC across repetitions (a repetition far from
    its siblings), and per-experiment component shares across cell
    sizes (a cell whose time went somewhere unusual for its strategy).
    """
    anomalies: List[Anomaly] = []
    by_cell: Dict[Tuple[int, int], List[RunResult]] = {}
    for run in result.runs:
        by_cell.setdefault((run.exp_id, run.n_tasks), []).append(run)

    for (exp_id, n_tasks), runs in sorted(by_cell.items()):
        zs = robust_z([r.ttc for r in runs])
        for run, z in zip(runs, zs):
            if abs(z) >= Z_THRESHOLD:
                anomalies.append(Anomaly(
                    "ttc-outlier", f"{exp_id}:{n_tasks}",
                    f"rep {run.rep} TTC {run.ttc:.0f}s", z,
                ))

    by_exp: Dict[int, List[Tuple[int, Dict[str, float]]]] = {}
    for (exp_id, n_tasks), runs in sorted(by_cell.items()):
        share_means = mean_shares([(r.ttc, _components_of(r)) for r in runs])
        by_exp.setdefault(exp_id, []).append((n_tasks, share_means))
    for exp_id, rows in sorted(by_exp.items()):
        for name in COMPONENTS:
            zs = robust_z([shares[name] for _, shares in rows])
            for (n_tasks, shares), z in zip(rows, zs):
                if abs(z) >= Z_THRESHOLD:
                    anomalies.append(Anomaly(
                        "share-outlier", f"{exp_id}:{n_tasks}",
                        f"{name} share {shares[name]:.1%}", z,
                    ))
    return anomalies
