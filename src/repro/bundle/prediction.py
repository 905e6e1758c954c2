"""Predictive query mode: queue-wait forecasts from historical measurements.

The paper's bundle offers a predictive mode based on *historical
measurements of resource utilization* because queue waiting time is
"extremely hard to predict accurately". We implement two estimators over
a resource's recorded (finish_time, wait, cores) history:

* :class:`QuantilePredictor` — a QBETS-style non-parametric binomial
  quantile bound: report the history value at the rank that upper-bounds
  the q-th quantile with the requested confidence. Robust to the heavy
  tails of real wait distributions.
* :class:`EwmaPredictor` — an exponentially weighted moving average,
  the cheap point estimate.

Both degrade gracefully on thin history (falling back to a prior).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

#: History record: (finish_or_start_time, wait_seconds, cores)
WaitSample = Tuple[float, float, int]


@lru_cache(maxsize=4096)
def binomial_rank(n: int, quantile: float, confidence: float) -> int:
    """Index into ``n`` sorted samples that upper-bounds the ``quantile``
    with probability ``confidence``.

    The smallest rank k such that P(X_(k) >= q-quantile) >= confidence,
    i.e. Binomial(n, q) CDF at k-1 >= confidence, found by walking the
    CDF once; ``n - 1`` when the walk never reaches the confidence. The
    rank depends only on its arguments, so it is memoized: a predictor
    queried over a full history ring walks the CDF once, not per query.
    """
    cdf = 0.0
    q = quantile
    for k in range(n):
        cdf += math.comb(n, k) * q**k * (1 - q) ** (n - k)
        if cdf >= confidence:
            return min(k, n - 1)
    return n - 1


class QuantilePredictor:
    """Binomial (QBETS-like) upper quantile bound on queue waits."""

    def __init__(
        self,
        quantile: float = 0.75,
        confidence: float = 0.95,
        prior_seconds: float = 1800.0,
        min_samples: int = 8,
    ) -> None:
        if not (0 < quantile < 1):
            raise ValueError("quantile must be in (0, 1)")
        if not (0 < confidence < 1):
            raise ValueError("confidence must be in (0, 1)")
        self.quantile = quantile
        self.confidence = confidence
        self.prior_seconds = prior_seconds
        self.min_samples = min_samples

    def predict(
        self,
        history: Sequence[WaitSample],
        cores: Optional[int] = None,
    ) -> float:
        """Upper bound on the wait a new job will experience.

        When ``cores`` is given, history is restricted to jobs within a
        factor of 4 in size (waits correlate strongly with job width);
        if that leaves too few samples the full history is used.
        """
        waits = self._relevant_waits(history, cores)
        if len(waits) < self.min_samples:
            return self.prior_seconds
        xs = np.sort(np.asarray(waits))
        return float(xs[binomial_rank(len(xs), self.quantile, self.confidence)])

    def _relevant_waits(
        self, history: Sequence[WaitSample], cores: Optional[int]
    ) -> list:
        if cores is None:
            return [w for _, w, _ in history]
        lo, hi = cores / 4, cores * 4
        subset = [w for _, w, c in history if lo <= c <= hi]
        if len(subset) >= self.min_samples:
            return subset
        return [w for _, w, _ in history]


class EwmaPredictor:
    """Exponentially weighted moving average of recent waits."""

    def __init__(self, alpha: float = 0.2, prior_seconds: float = 1800.0) -> None:
        if not (0 < alpha <= 1):
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.prior_seconds = prior_seconds

    def predict(
        self,
        history: Sequence[WaitSample],
        cores: Optional[int] = None,
    ) -> float:
        waits = [w for _, w, _ in history]
        if not waits:
            return self.prior_seconds
        estimate = waits[0]
        for w in waits[1:]:
            estimate = self.alpha * w + (1 - self.alpha) * estimate
        return float(estimate)
