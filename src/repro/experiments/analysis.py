"""Statistical analysis over campaign results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .campaign import CampaignResult


@dataclass(frozen=True)
class CellStats:
    """Summary statistics for one (experiment, size) cell."""

    exp_id: int
    n_tasks: int
    n_runs: int
    mean: float
    std: float
    minimum: float
    maximum: float


def cell_stats(
    result: CampaignResult, exp_id: int, n_tasks: int, attr: str = "ttc"
) -> CellStats:
    values = np.asarray(
        [getattr(r, attr) for r in result.cell(exp_id, n_tasks)], dtype=float
    )
    if values.size == 0:
        nan = float("nan")
        return CellStats(exp_id, n_tasks, 0, nan, nan, nan, nan)
    return CellStats(
        exp_id=exp_id,
        n_tasks=n_tasks,
        n_runs=int(values.size),
        mean=float(values.mean()),
        std=float(values.std(ddof=0)),
        minimum=float(values.min()),
        maximum=float(values.max()),
    )


def tw_range(result: CampaignResult, exp_ids: Sequence[int]) -> Tuple[float, float]:
    """(min, max) of the Tw component over the given experiments.

    The paper reports early-binding Tw varying in [600, 8600] s and
    late-binding Tw in [99, 2800] s; this is the comparable statistic.
    """
    waits = [
        r.tw for r in result.runs if r.exp_id in exp_ids and r.tw == r.tw
    ]
    if not waits:
        return (float("nan"), float("nan"))
    return (min(waits), max(waits))


def variability_ratio(
    result: CampaignResult,
    early_exp: int = 1,
    late_exp: int = 3,
    attr: str = "ttc",
) -> float:
    """Mean per-size std of early binding over late binding.

    > 1 means early binding is the more variable strategy (Figure 4's
    error-bar comparison).
    """
    sizes = sorted({r.n_tasks for r in result.runs})
    ratios = []
    for n in sizes:
        e = cell_stats(result, early_exp, n, attr).std
        l = cell_stats(result, late_exp, n, attr).std
        if e == e and l == l and l > 0:
            ratios.append(e / l)
    return float(np.mean(ratios)) if ratios else float("nan")


def win_fraction(
    result: CampaignResult, winner_exp: int, loser_exp: int, attr: str = "ttc"
) -> float:
    """Fraction of sizes at which winner's mean beats loser's mean."""
    sizes = sorted({r.n_tasks for r in result.runs})
    wins = total = 0
    for n in sizes:
        w = cell_stats(result, winner_exp, n, attr).mean
        l = cell_stats(result, loser_exp, n, attr).mean
        if w == w and l == l:
            total += 1
            if w < l:
                wins += 1
    return wins / total if total else float("nan")


def component_shares(
    result: CampaignResult, exp_id: int
) -> Dict[int, Dict[str, float]]:
    """Per-size mean of TTC and of each decomposition component
    (``tw``, ``tx``, ``ts``, ``trp``) for one experiment, in seconds."""
    sizes = sorted({r.n_tasks for r in result.runs if r.exp_id == exp_id})
    return {
        n: {
            attr: cell_stats(result, exp_id, n, attr).mean
            for attr in ("ttc", "tw", "tx", "ts", "trp")
        }
        for n in sizes
    }


def significance(
    result: CampaignResult,
    exp_a: int,
    exp_b: int,
    attr: str = "ttc",
) -> float:
    """One-sided Mann-Whitney U p-value that experiment A's values are
    stochastically smaller than B's (A "wins").

    Nonparametric on purpose: TTC distributions are heavy-tailed, so
    t-tests on means would be driven by a few extreme queue draws.
    """
    from scipy import stats

    a = np.asarray([getattr(r, attr) for r in result.runs if r.exp_id == exp_a])
    b = np.asarray([getattr(r, attr) for r in result.runs if r.exp_id == exp_b])
    if a.size == 0 or b.size == 0:
        return float("nan")
    return float(stats.mannwhitneyu(a, b, alternative="less").pvalue)


def paired_significance(
    result: CampaignResult,
    exp_a: int,
    exp_b: int,
    attr: str = "ttc",
) -> float:
    """One-sided Wilcoxon signed-rank p-value on per-size cell means.

    The campaign design is paired by application size, so the right test
    compares A's and B's means size by size rather than pooling runs
    across sizes (whose scales differ by orders of magnitude and drown
    the rank statistic). Small n (one pair per size), but all-sizes wins
    still reach p < 0.01 at the paper's nine sizes.
    """
    from scipy import stats

    sizes = sorted(
        {r.n_tasks for r in result.runs if r.exp_id in (exp_a, exp_b)}
    )
    diffs = []
    for n in sizes:
        a = cell_stats(result, exp_a, n, attr).mean
        b = cell_stats(result, exp_b, n, attr).mean
        if a == a and b == b:
            diffs.append(a - b)
    if len(diffs) < 5:
        return float("nan")
    if all(d == 0 for d in diffs):
        # identical samples: no evidence either way (scipy's wilcoxon
        # raises on an all-zero difference vector).
        return float("nan")
    return float(stats.wilcoxon(diffs, alternative="less").pvalue)
