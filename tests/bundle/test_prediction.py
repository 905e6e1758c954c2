"""Tests for the predictive query mode (queue-wait forecasting)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.bundle import EwmaPredictor, QuantilePredictor
from repro.bundle.prediction import PRIOR_S, binomial_rank


def hist(waits, cores=64, t0=0.0):
    return [(t0 + i, w, cores) for i, w in enumerate(waits)]


class TestQuantilePredictor:
    def test_prior_on_thin_history(self):
        p = QuantilePredictor()
        assert p.predict(hist([10, 20, 30])) == PRIOR_S
        assert p.predict([]) == PRIOR_S

    def test_bound_covers_quantile(self):
        rng = np.random.default_rng(0)
        waits = rng.exponential(600, size=200)
        p = QuantilePredictor()  # the 0.75 quantile at 0.95 confidence
        bound = p.predict(hist(list(waits)))
        true_q = np.quantile(waits, 0.75)
        assert bound >= true_q * 0.9  # upper bound (allow sampling slack)
        assert bound <= waits.max()

    def test_monotone_in_quantile(self):
        for n in (8, 100, 512):
            ranks = [binomial_rank(n, q, 0.95) for q in (0.5, 0.75, 0.9)]
            assert ranks == sorted(ranks), n

    def test_core_filtering_prefers_similar_jobs(self):
        # Small jobs waited 10 s, big jobs 5000 s.
        history = hist([10] * 20, cores=1) + hist([5000] * 20, cores=1024)
        p = QuantilePredictor()
        small = p.predict(history, cores=2)
        big = p.predict(history, cores=512)
        assert small < 100
        assert big > 1000

    def test_core_filter_falls_back_when_sparse(self):
        history = hist([100] * 20, cores=64)
        p = QuantilePredictor()
        # no jobs near 4096 cores -> uses full history rather than the prior
        assert p.predict(history, cores=4096) == pytest.approx(100)

    def test_constant_history(self):
        p = QuantilePredictor()
        assert p.predict(hist([300] * 50)) == 300


class TestEwmaPredictor:
    def test_prior_on_empty(self):
        assert EwmaPredictor().predict([]) == PRIOR_S

    def test_tracks_recent_values(self):
        p = EwmaPredictor()
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


_QUANTILES = (0.05, 0.5, 0.75, 0.95, 0.99)
_CONFIDENCES = (0.05, 0.5, 0.95, 0.99)


@pytest.mark.slow
def test_incremental_coefficient_rank_equals_math_comb_walk():
    """The walk's carried C(n, k) gives the rank the ``math.comb`` formula
    gives, for every history size up to 1029 (the largest whose every
    C(n, k) fits a double) over a quantile/confidence grid. Each
    ``math.comb(n, k)`` is computed once and shared by the grid's walks,
    in the reference's expression."""
    walk = binomial_rank.__wrapped__  # unmemoized
    for n in range(1, 1030):
        combs = []
        for q in _QUANTILES:
            for confidence in _CONFIDENCES:
                cdf, rank = 0.0, n - 1
                for k in range(n):
                    if k == len(combs):
                        combs.append(math.comb(n, k))
                    cdf += combs[k] * q**k * (1 - q) ** (n - k)
                    if cdf >= confidence:
                        rank = min(k, n - 1)
                        break
                assert walk(n, q, confidence) == rank, (n, q, confidence)


def _exact_rank(n, quantile, confidence):
    """The CDF walk in exact arithmetic: with ``quantile = a / d`` every
    term times ``d**n`` is the integer ``C(n, k) a**k (d - a)**(n - k)``."""
    a, d = Fraction(quantile).as_integer_ratio()
    target = Fraction(confidence) * d**n
    term, total = (d - a) ** n, 0  # the k = 0 term
    for k in range(n):
        total += term
        if total >= target:
            return k
        term = term * (n - k) * a // ((k + 1) * (d - a))
    return n - 1


@pytest.mark.parametrize("n", [1030, 1100, 2048, 4096])
def test_rank_past_double_range_equals_exact_sum(n):
    """From n = 1030 the middle C(n, k) overflow a double; the walk must
    still give the rank exact rational summation gives."""
    walk = binomial_rank.__wrapped__  # unmemoized
    for q in (0.5, 0.75, 0.95):
        for confidence in (0.5, 0.95, 0.99):
            assert walk(n, q, confidence) == _exact_rank(
                n, q, confidence
            ), (q, confidence)


def test_predict_is_the_sample_at_the_walked_rank():
    rng = np.random.default_rng(4)
    p = QuantilePredictor()  # the 0.75 quantile at 0.95 confidence
    for n in (8, 9, 100, 512):
        waits = list(rng.exponential(600, size=n))
        rank = _walked_rank(n, 0.75, 0.95)
        assert p.predict(hist(waits)) == float(np.sort(waits)[rank])
        assert p.predict(hist(waits)) == p.predict(hist(waits))  # memo hit
