"""Tests for the predictive query mode (queue-wait forecasting)."""

import math

import numpy as np
import pytest

from repro.bundle import EwmaPredictor, QuantilePredictor
from repro.bundle.prediction import binomial_rank


def hist(waits, cores=64, t0=0.0):
    return [(t0 + i, w, cores) for i, w in enumerate(waits)]


class TestQuantilePredictor:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuantilePredictor(quantile=0)
        with pytest.raises(ValueError):
            QuantilePredictor(quantile=1)
        with pytest.raises(ValueError):
            QuantilePredictor(confidence=1.5)

    def test_prior_on_thin_history(self):
        p = QuantilePredictor(prior_seconds=1234, min_samples=8)
        assert p.predict(hist([10, 20, 30])) == 1234
        assert p.predict([]) == 1234

    def test_bound_covers_quantile(self):
        rng = np.random.default_rng(0)
        waits = rng.exponential(600, size=200)
        p = QuantilePredictor(quantile=0.75, confidence=0.95)
        bound = p.predict(hist(list(waits)))
        true_q = np.quantile(waits, 0.75)
        assert bound >= true_q * 0.9  # upper bound (allow sampling slack)
        assert bound <= waits.max()

    def test_monotone_in_quantile(self):
        rng = np.random.default_rng(1)
        h = hist(list(rng.exponential(600, size=100)))
        lo = QuantilePredictor(quantile=0.5).predict(h)
        hi = QuantilePredictor(quantile=0.9).predict(h)
        assert lo <= hi

    def test_core_filtering_prefers_similar_jobs(self):
        # Small jobs waited 10 s, big jobs 5000 s.
        history = hist([10] * 20, cores=1) + hist([5000] * 20, cores=1024)
        p = QuantilePredictor(min_samples=5)
        small = p.predict(history, cores=2)
        big = p.predict(history, cores=512)
        assert small < 100
        assert big > 1000

    def test_core_filter_falls_back_when_sparse(self):
        history = hist([100] * 20, cores=64)
        p = QuantilePredictor(min_samples=5)
        # no jobs near 4096 cores -> uses full history rather than the prior
        assert p.predict(history, cores=4096) == pytest.approx(100)

    def test_constant_history(self):
        p = QuantilePredictor()
        assert p.predict(hist([300] * 50)) == 300


class TestEwmaPredictor:
    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaPredictor(alpha=0)
        with pytest.raises(ValueError):
            EwmaPredictor(alpha=1.5)

    def test_prior_on_empty(self):
        assert EwmaPredictor(prior_seconds=777).predict([]) == 777

    def test_tracks_recent_values(self):
        p = EwmaPredictor(alpha=0.5)
        rising = p.predict(hist([100] * 10 + [1000] * 10))
        assert 500 < rising <= 1000

    def test_constant_history_exact(self):
        assert EwmaPredictor().predict(hist([250] * 30)) == pytest.approx(250)


def _walked_rank(n, quantile, confidence):
    """The binomial CDF walk, unmemoized (the reference)."""
    cdf = 0.0
    for k in range(n):
        cdf += math.comb(n, k) * quantile**k * (1 - quantile) ** (n - k)
        if cdf >= confidence:
            return min(k, n - 1)
    return n - 1


@pytest.mark.parametrize("quantile", [0.5, 0.75, 0.95])
@pytest.mark.parametrize("confidence", [0.5, 0.95, 0.99])
def test_memoized_rank_equals_the_walk(quantile, confidence):
    for n in range(1, 513):
        assert binomial_rank(n, quantile, confidence) == _walked_rank(
            n, quantile, confidence
        ), n


def test_predict_is_the_sample_at_the_walked_rank():
    rng = np.random.default_rng(4)
    p = QuantilePredictor(quantile=0.75, confidence=0.95)
    for n in (8, 9, 100, 512):
        waits = list(rng.exponential(600, size=n))
        rank = _walked_rank(n, 0.75, 0.95)
        assert p.predict(hist(waits)) == float(np.sort(waits)[rank])
        assert p.predict(hist(waits)) == p.predict(hist(waits))  # memo hit
