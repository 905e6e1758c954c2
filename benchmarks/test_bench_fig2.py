"""Figure 2 — TTC comparison of experiments 1-4 vs application size.

Regenerates the paper's headline figure: late binding + backfill over
three pilots (Exp. 3-4) yields lower and smoother TTC than early binding
on a single pilot (Exp. 1-2). We assert the *shape*: who wins in
aggregate and by roughly what factor, not absolute seconds.
"""

import numpy as np

from repro.experiments import cell_stats, render_figure2
from repro.skeleton import PAPER_TASK_COUNTS


def _mean_ttc_over_sizes(campaign, exp_id):
    means = [
        cell_stats(campaign, exp_id, n, "ttc").mean for n in PAPER_TASK_COUNTS
    ]
    return float(np.mean(means))


def test_bench_fig2(campaign, benchmark):
    print()
    print(render_figure2(campaign))

    # Every run completed all tasks.
    assert all(r.units_done == r.n_tasks for r in campaign.runs)

    # Late binding beats early binding in aggregate, for both duration
    # distributions (the paper: Exp 3 & 4 "have shorter TTC").
    early_uniform = _mean_ttc_over_sizes(campaign, 1)
    early_gauss = _mean_ttc_over_sizes(campaign, 2)
    late_uniform = _mean_ttc_over_sizes(campaign, 3)
    late_gauss = _mean_ttc_over_sizes(campaign, 4)
    assert late_uniform < early_uniform, (
        f"late {late_uniform:.0f}s should beat early {early_uniform:.0f}s"
    )
    assert late_gauss < early_gauss

    # And by a substantial factor (paper's gap is severalfold on average).
    assert early_uniform / late_uniform > 1.5

    # The late-binding progression is smooth where early binding spikes:
    # per-size relative dispersion (std/mean) is far lower for late
    # binding, averaged over the size axis.
    def mean_cv(exp_id):
        cvs = []
        for n in PAPER_TASK_COUNTS:
            s = cell_stats(campaign, exp_id, n, "ttc")
            if s.n_runs and s.mean > 0:
                cvs.append(s.std / s.mean)
        return float(np.mean(cvs))

    assert mean_cv(3) < mean_cv(1), (
        "late binding should progress more smoothly across sizes "
        f"(CV late {mean_cv(3):.2f} vs early {mean_cv(1):.2f})"
    )

    # Benchmark the figure regeneration itself (the analysis hot path).
    benchmark(render_figure2, campaign)
