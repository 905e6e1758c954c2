"""Tests for figure/table rendering and analysis helpers."""

import pytest

from repro.experiments import (
    render_all,
    render_figure2,
    render_figure3,
    render_figure4,
    render_table1,
    variability_ratio,
    component_shares,
)
from repro.experiments.campaign import CampaignResult, RunResult


def synthetic_result():
    """A hand-built campaign with known statistics."""
    result = CampaignResult()
    base = {
        1: (4000, 3000, 900, 50),   # exp 1: big variable Tw
        3: (1500, 300, 1200, 50),   # exp 3: small Tw, longer Tx
    }
    for exp, (ttc, tw, tx, ts) in base.items():
        for n in (8, 64):
            for rep in range(3):
                jitter = rep * (500 if exp == 1 else 50)
                result.runs.append(
                    RunResult(
                        exp_id=exp, n_tasks=n, rep=rep,
                        resources=("r",) * (1 if exp == 1 else 3),
                        ttc=ttc + jitter, tw=tw + jitter, tw_last=tw + jitter,
                        tx=tx, ts=ts, trp=10.0,
                        pilot_waits=(tw,), units_done=n, restarts=0,
                    )
                )
    return result


def test_render_table1_lists_all_rows():
    text = render_table1()
    assert "Table I" in text
    for token in ("early", "late", "direct", "backfill", "2^n, n=3..11",
                  "(Tx+Ts+Trp)*3", "trunc. Gaussian"):
        assert token in text, token


def test_render_figure2_contains_means():
    text = render_figure2(synthetic_result())
    assert "Exp.1" in text and "Exp.3" in text
    # exp1 mean = 4000 + 500 = 4500
    assert "4500" in text
    # exp3 mean = 1500 + 50 = 1550
    assert "1550" in text


def test_render_figure3_decomposition():
    text = render_figure3(synthetic_result(), 1)
    assert "Tw(s)" in text and "Tx(s)" in text and "Ts(s)" in text
    assert "Tw range over runs" in text


def test_render_figure4_stds():
    text = render_figure4(synthetic_result())
    assert "Early std" in text and "Late std" in text


def test_render_all_concatenates():
    text = render_all(synthetic_result())
    assert "Table I" in text
    assert "Figure 2" in text
    assert "Figure 4" in text


def test_variability_ratio_early_exceeds_late():
    # early jitter 500/run vs late 50/run -> ratio ~10
    ratio = variability_ratio(synthetic_result(), early_exp=1, late_exp=3)
    assert ratio == pytest.approx(10.0, rel=0.01)


def test_component_shares():
    shares = component_shares(synthetic_result(), 3)
    assert set(shares) == {8, 64}
    assert shares[8]["tx"] == 1200
    assert shares[8]["ttc"] == pytest.approx(1550)


def test_significance():
    from repro.experiments import significance

    result = synthetic_result()
    # exp 3 values (~1500s) are clearly below exp 1 (~4000s)
    p = significance(result, 3, 1)
    assert p < 0.01
    # the reverse direction is not significant
    assert significance(result, 1, 3) > 0.5
    # missing experiment -> nan
    import math
    assert math.isnan(significance(result, 9, 1))


def test_paired_significance():
    import math

    from repro.experiments import paired_significance
    from repro.experiments.campaign import CampaignResult, RunResult

    result = CampaignResult()

    def add(exp, n, ttc, rep):
        result.runs.append(RunResult(
            exp_id=exp, n_tasks=n, rep=rep, resources=("x",),
            ttc=ttc, tw=0, tw_last=0, tx=0, ts=0, trp=0,
            pilot_waits=(0,), units_done=n, restarts=0,
        ))

    sizes = [8, 16, 32, 64, 128, 256, 512]
    for n in sizes:
        for rep in range(2):
            add(1, n, 1000 * (1 + sizes.index(n)), rep)   # slower at every size
            add(3, n, 400 * (1 + sizes.index(n)), rep)    # faster at every size
    p = paired_significance(result, 3, 1)
    assert p < 0.01
    # too few common sizes -> nan
    small = CampaignResult()
    small.runs = [r for r in result.runs if r.n_tasks in (8, 16)]
    assert math.isnan(paired_significance(small, 3, 1))
