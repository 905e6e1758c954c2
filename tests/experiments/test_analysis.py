"""Campaign statistics: significance tests and component shares.

The statistical helpers must be safe on degenerate inputs — single
repetitions, zero-variance cells, identical samples — because tiny smoke
campaigns in CI hit exactly those shapes.
"""

import math

import pytest

from repro.experiments.analysis import (
    cell_stats,
    component_shares,
    paired_significance,
    significance,
)
from repro.experiments.campaign import CampaignResult, RunResult
from repro.experiments.sentinel import campaign_fingerprint


def _run(exp_id=1, n_tasks=8, rep=0, ttc=1000.0, attribution=True, **over):
    att = ()
    if attribution:
        att = (
            ("tw", 0.1 * ttc), ("tr", 0.0), ("tx", 0.8 * ttc),
            ("ts", 0.05 * ttc), ("trp", 0.04 * ttc), ("idle", 0.01 * ttc),
        )
    base = dict(
        exp_id=exp_id, n_tasks=n_tasks, rep=rep,
        resources=("stampede-sim",),
        ttc=ttc, tw=0.1 * ttc, tw_last=0.1 * ttc, tx=0.8 * ttc,
        ts=0.05 * ttc, trp=0.04 * ttc,
        pilot_waits=(0.1 * ttc,), units_done=n_tasks, restarts=0,
        events=100, attribution=att,
    )
    base.update(over)
    return RunResult(**base)


def _campaign(runs):
    return CampaignResult(runs=tuple(runs))


class TestSignificance:
    def test_empty_experiment_is_nan(self):
        result = _campaign([_run(exp_id=1)])
        assert math.isnan(significance(result, 1, 2))

    def test_single_run_per_side(self):
        result = _campaign([
            _run(exp_id=1, ttc=500.0), _run(exp_id=2, ttc=1000.0),
        ])
        p = significance(result, 1, 2)
        assert 0.0 <= p <= 1.0

    def test_identical_samples_are_not_significant(self):
        runs = [_run(exp_id=e, rep=i, ttc=1000.0)
                for e in (1, 2) for i in range(4)]
        p = significance(_campaign(runs), 1, 2)
        assert p > 0.4  # no evidence either way

    def test_clear_winner_is_significant(self):
        runs = [_run(exp_id=1, rep=i, ttc=100.0 + i) for i in range(8)]
        runs += [_run(exp_id=2, rep=i, ttc=1000.0 + i) for i in range(8)]
        assert significance(_campaign(runs), 1, 2) < 0.01


class TestPairedSignificance:
    def _grid(self, ttc_a, ttc_b, sizes=(8, 16, 32, 64, 128)):
        runs = []
        for n in sizes:
            runs.append(_run(exp_id=1, n_tasks=n, ttc=ttc_a(n)))
            runs.append(_run(exp_id=2, n_tasks=n, ttc=ttc_b(n)))
        return _campaign(runs)

    def test_too_few_sizes_is_nan(self):
        result = self._grid(lambda n: n, lambda n: 2 * n, sizes=(8, 16))
        assert math.isnan(paired_significance(result, 1, 2))

    def test_identical_samples_are_nan_not_an_error(self):
        # scipy's wilcoxon raises on an all-zero difference vector; the
        # wrapper must answer "no evidence" instead of crashing.
        result = self._grid(lambda n: 10.0 * n, lambda n: 10.0 * n)
        assert math.isnan(paired_significance(result, 1, 2))

    def test_consistent_winner_is_significant(self):
        result = self._grid(
            lambda n: 10.0 * n, lambda n: 20.0 * n,
            sizes=(8, 16, 32, 64, 128, 256),
        )
        assert paired_significance(result, 1, 2) < 0.05


class TestComponentShares:
    def test_raw_mode_reports_means(self):
        result = _campaign([_run(n_tasks=8), _run(n_tasks=8, rep=1)])
        shares = component_shares(result, 1)
        assert shares[8]["ttc"] == pytest.approx(1000.0)
        assert shares[8]["tw"] == pytest.approx(100.0)

    def test_normalized_shares_sum_to_one(self):
        """The shares of TTC are the fingerprint's, the mean per run of
        each component's share; a cell's sum to one."""
        result = _campaign([
            _run(n_tasks=8), _run(n_tasks=8, rep=1, ttc=2000.0),
            _run(n_tasks=16, ttc=4000.0),
        ])
        cells = campaign_fingerprint(result)["cells"]
        assert sorted(cells) == ["1:16", "1:8"]
        for key, cell in cells.items():
            assert sum(cell["shares"].values()) == pytest.approx(
                1.0, abs=1e-9
            ), key


def test_cell_stats_single_run_has_zero_std():
    result = _campaign([_run()])
    stats = cell_stats(result, 1, 8)
    assert stats.n_runs == 1
    assert stats.std == 0.0
    assert stats.mean == stats.minimum == stats.maximum
