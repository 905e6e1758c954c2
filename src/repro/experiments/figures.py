"""Regeneration of the paper's table and figures as printable text.

Each function renders the same rows/series the paper reports:

* :func:`render_table1` — the experiment/strategy configuration matrix;
* :func:`render_figure2` — TTC comparison of experiments 1–4 vs #tasks;
* :func:`render_figure3` — per-experiment TTC decomposition (Tw/Tx/Ts);
* :func:`render_figure4` — TTC mean ± std for early vs late binding.

The numbers come from a :class:`~repro.experiments.campaign.CampaignResult`;
the configuration table is static (it *is* the experiment design).
"""

from __future__ import annotations

from typing import List

from ..skeleton import PAPER_TASK_COUNTS
from .analysis import cell_stats, component_shares, tw_range
from .campaign import CampaignResult, TABLE1


def render_table1() -> str:
    """The strategy matrix of Table I."""
    lines = [
        "Table I — skeleton applications and execution strategies",
        f"{'Exp':>3} | {'#Tasks':>12} | {'Task duration':>24} | "
        f"{'Binding':>7} | {'Scheduler':>9} | {'#Pilots':>7} | "
        f"{'Pilot size':>14} | Pilot walltime",
    ]
    lines.append("-" * len(lines[1]))
    for exp_id, spec in sorted(TABLE1.items()):
        dist = (
            "1-30 min (trunc. Gaussian)" if spec.gaussian else "15 min"
        )
        binding = spec.binding.value
        size = "#tasks" if spec.n_pilots == 1 else f"#tasks/{spec.n_pilots}"
        wall = (
            "Tx+Ts+Trp" if spec.n_pilots == 1
            else f"(Tx+Ts+Trp)*{spec.n_pilots}"
        )
        lines.append(
            f"{exp_id:>3} | {'2^n, n=3..11':>12} | {dist:>24} | "
            f"{binding:>7} | {spec.unit_scheduler:>9} | "
            f"{spec.n_pilots:>7} | {size:>14} | {wall}"
        )
    return "\n".join(lines)


def render_figure2(result: CampaignResult) -> str:
    """TTC comparison (paper Figure 2): one row per size of
    ``PAPER_TASK_COUNTS``, one column per experiment."""
    exp_ids = sorted({r.exp_id for r in result.runs})
    header = f"{'#tasks':>7} | " + " | ".join(
        f"{'Exp.' + str(e) + ' TTC(s)':>14}" for e in exp_ids
    )
    lines = ["Figure 2 — TTC comparison across experiments", header,
             "-" * len(header)]
    for n in PAPER_TASK_COUNTS:
        cells = []
        for e in exp_ids:
            s = cell_stats(result, e, n, "ttc")
            cells.append(f"{s.mean:>14.0f}" if s.n_runs else f"{'--':>14}")
        lines.append(f"{n:>7} | " + " | ".join(cells))
    return "\n".join(lines)


def render_figure3(result: CampaignResult, exp_id: int) -> str:
    """TTC decomposition for one experiment (paper Figure 3a-d), one row
    per size of ``PAPER_TASK_COUNTS`` that has runs."""
    spec = TABLE1.get(exp_id)
    label = spec.label if spec else f"Exp.{exp_id}"
    header = (
        f"{'#tasks':>7} | {'TTC(s)':>9} | {'Tw(s)':>9} | {'Tx(s)':>9} | "
        f"{'Ts(s)':>9} | {'Trp(s)':>9}"
    )
    lines = [f"Figure 3 — TTC components, {label}", header, "-" * len(header)]
    shares = component_shares(result, exp_id)
    for n in PAPER_TASK_COUNTS:
        if n not in shares:
            continue
        c = shares[n]
        lines.append(
            f"{n:>7} | {c['ttc']:>9.0f} | {c['tw']:>9.0f} | "
            f"{c['tx']:>9.0f} | {c['ts']:>9.0f} | {c['trp']:>9.0f}"
        )
    lo, hi = tw_range(result, [exp_id])
    lines.append(f"Tw range over runs: [{lo:.0f}, {hi:.0f}] s")
    return "\n".join(lines)


#: the experiments Figure 4 compares: early binding on one pilot, late
#: binding on three.
EARLY_EXP, LATE_EXP = 1, 3


def render_figure4(result: CampaignResult) -> str:
    """TTC with run-to-run error bars, early vs late (paper Figure 4)."""
    header = (
        f"{'#tasks':>7} | {'Early mean':>11} | {'Early std':>10} | "
        f"{'Late mean':>10} | {'Late std':>9}"
    )
    lines = [
        f"Figure 4 — TTC variability: Exp.{EARLY_EXP} (early, 1 pilot) vs "
        f"Exp.{LATE_EXP} (late, 3 pilots)",
        header,
        "-" * len(header),
    ]
    for n in PAPER_TASK_COUNTS:
        e = cell_stats(result, EARLY_EXP, n, "ttc")
        l = cell_stats(result, LATE_EXP, n, "ttc")
        if not e.n_runs and not l.n_runs:
            continue
        lines.append(
            f"{n:>7} | {e.mean:>11.0f} | {e.std:>10.0f} | "
            f"{l.mean:>10.0f} | {l.std:>9.0f}"
        )
    return "\n".join(lines)


def render_all(result: CampaignResult) -> str:
    """Every table/figure of the evaluation, concatenated."""
    parts: List[str] = [render_table1(), render_figure2(result)]
    for exp_id in sorted({r.exp_id for r in result.runs}):
        parts.append(render_figure3(result, exp_id))
    parts.append(render_figure4(result))
    return "\n\n".join(parts)
