"""The regression sentinel: fingerprints, drift detection, robust z."""

import copy

import pytest

from repro.experiments import (
    campaign_fingerprint,
    compare_fingerprints,
    detect_anomalies,
    robust_z,
    run_campaign,
)
from repro.experiments.sentinel import Drift, _components_of, mean_shares
from repro.experiments.campaign import CampaignResult, RunResult


@pytest.fixture(scope="module")
def small_campaign():
    return run_campaign(
        experiments=(1, 3), task_counts=(8, 16), reps=2, campaign_seed=2016
    )


def _run(**over):
    base = dict(
        exp_id=1, n_tasks=8, rep=0, resources=("stampede-sim",),
        ttc=1000.0, tw=100.0, tw_last=100.0, tx=800.0, ts=50.0, trp=50.0,
        pilot_waits=(100.0,), units_done=8, restarts=0, events=500,
        attribution=(
            ("tw", 100.0), ("tr", 0.0), ("tx", 800.0),
            ("ts", 50.0), ("trp", 40.0), ("idle", 10.0),
        ),
        attribution_digest="ab" * 32,
    )
    base.update(over)
    return RunResult(**base)


class TestRobustZ:
    def test_empty(self):
        assert robust_z([]) == []

    def test_single_value_has_no_outliers(self):
        assert robust_z([42.0]) == [0.0]

    def test_zero_variance_yields_zeros(self):
        assert robust_z([5.0, 5.0, 5.0, 5.0]) == [0.0] * 4

    def test_obvious_outlier_scores_high(self):
        zs = robust_z([10.0, 11.0, 9.0, 10.5, 9.5, 100.0])
        assert abs(zs[-1]) > 3.5
        assert all(abs(z) < 3.5 for z in zs[:-1])

    def test_symmetric_signs(self):
        zs = robust_z([1.0, 2.0, 3.0])
        assert zs[0] < 0 < zs[2] and zs[1] == 0.0


class TestComponentsOf:
    def test_prefers_exact_attribution(self):
        comps = _components_of(_run())
        assert comps["idle"] == 10.0
        assert sum(comps.values()) == pytest.approx(1000.0)

    def test_legacy_fallback(self):
        comps = _components_of(_run(attribution=()))
        assert comps["tw"] == 100.0 and comps["idle"] == 0.0


class TestFingerprint:
    def test_shape_and_determinism(self, small_campaign):
        fp = campaign_fingerprint(small_campaign)
        assert set(fp["cells"]) == {"1:8", "1:16", "3:8", "3:16"}
        for cell in fp["cells"].values():
            assert cell["n"] == 2
            assert cell["ttc_mean"] > 0
            assert sum(cell["shares"].values()) == pytest.approx(1.0)
            assert len(cell["attribution_digest"]) == 64
        assert fp["digest"] == campaign_fingerprint(small_campaign)["digest"]

    def test_identical_campaigns_fingerprint_identically(self, small_campaign):
        again = run_campaign(
            experiments=(1, 3), task_counts=(8, 16), reps=2,
            campaign_seed=2016,
        )
        assert campaign_fingerprint(again) == (
            campaign_fingerprint(small_campaign)
        )

    def test_clean_self_comparison_is_empty(self, small_campaign):
        fp = campaign_fingerprint(small_campaign)
        assert compare_fingerprints(fp, fp) == []


class TestDrift:
    def _fingerprints(self, small_campaign):
        baseline = campaign_fingerprint(small_campaign)
        current = copy.deepcopy(baseline)
        return baseline, current

    def test_injected_tw_regression_trips(self, small_campaign):
        # the acceptance scenario: a >= 20% Tw regression must fail.
        baseline, current = self._fingerprints(small_campaign)
        for cell in current["cells"].values():
            grown = cell["components"]["tw"] * 1.25 + 50.0
            delta = grown - cell["components"]["tw"]
            cell["components"]["tw"] = grown
            cell["ttc_mean"] += delta
        findings = compare_fingerprints(current, baseline)
        assert findings, "expected the Tw regression to be flagged"
        assert any(f.metric == "tw_mean" for f in findings)

    def test_speedup_is_not_a_regression(self, small_campaign):
        baseline, current = self._fingerprints(small_campaign)
        for cell in current["cells"].values():
            cell["ttc_mean"] *= 0.5
            for name in cell["components"]:
                cell["components"][name] *= 0.5
        findings = compare_fingerprints(current, baseline)
        assert all(not f.metric.endswith("_mean") for f in findings)

    def test_throughput_drop_trips(self, small_campaign):
        baseline, current = self._fingerprints(small_campaign)
        for cell in current["cells"].values():
            cell["throughput"] *= 0.5
        findings = compare_fingerprints(current, baseline)
        assert any(f.metric == "throughput" for f in findings)

    def test_missing_cell_is_reported(self, small_campaign):
        baseline, current = self._fingerprints(small_campaign)
        current["cells"].pop("3:16")
        findings = compare_fingerprints(current, baseline)
        assert any(f.metric == "missing-from-current" for f in findings)

    def test_small_noise_passes(self, small_campaign):
        baseline, current = self._fingerprints(small_campaign)
        for cell in current["cells"].values():
            cell["ttc_mean"] *= 1.01
        assert compare_fingerprints(current, baseline) == []

    def test_drift_describe(self):
        d = Drift("1:8", "tw_mean", 100.0, 130.0)
        assert "+30.0%" in d.describe()
        assert d.rel_change == pytest.approx(0.3)


class TestAnomalies:
    def test_clean_campaign_is_quiet(self, small_campaign):
        assert detect_anomalies(small_campaign) == []

    def test_share_outlier_counts_zero_ttc_runs_as_the_fingerprint_does(
        self,
    ):
        """A run without TTC counts with no share, as in ``mean_shares``:
        the cell whose second rep never ran has half the others' shares."""
        def run(n_tasks, rep, tx, ttc=1000.0):
            return _run(n_tasks=n_tasks, rep=rep, ttc=ttc, attribution=(
                ("tw", 100.0), ("tr", 0.0), ("tx", tx),
                ("ts", 50.0), ("trp", 40.0), ("idle", 810.0 - tx),
            ))

        runs = []
        for i, n_tasks in enumerate((8, 16, 32, 64, 128)):
            tx = 790.0 + 5.0 * i
            runs += [run(n_tasks, 0, tx), run(n_tasks, 1, tx)]
        runs += [run(256, 0, 800.0), run(256, 1, 0.0, ttc=0.0)]
        found = [
            (a.cell, a.detail) for a in detect_anomalies(
                CampaignResult(runs=tuple(runs))
            )
            if a.kind == "share-outlier"
        ]
        shares = mean_shares([(r.ttc, _components_of(r)) for r in runs[-2:]])
        assert shares["tx"] == pytest.approx(0.4)
        assert ("1:256", "tx share 40.0%") in found

    def test_ttc_outlier_is_flagged(self):
        runs = [
            _run(rep=i, ttc=1000.0 + i) for i in range(5)
        ] + [_run(rep=5, ttc=9000.0)]
        result = CampaignResult(runs=tuple(runs))
        found = detect_anomalies(result)
        assert any(
            a.kind == "ttc-outlier" and "rep 5" in a.detail for a in found
        )
