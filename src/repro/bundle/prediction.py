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
    The binomial coefficient ``C(n, k)`` is carried from term to term
    (``C(n, k + 1) = C(n, k) * (n - k) // (k + 1)``, an exact integer
    division), so each term costs one small bigint step, not a fresh
    ``math.comb``. Past ``n = 1029`` the middle coefficients exceed the
    largest double; those terms are summed in log space instead
    (``math.log`` takes an integer of any size).
    """
    cdf = 0.0
    q = quantile
    comb = 1  # C(n, k)
    for k in range(n):
        try:
            cdf += comb * q**k * (1 - q) ** (n - k)
        except OverflowError:  # C(n, k) does not fit a double
            cdf += math.exp(
                math.log(comb) + k * math.log(q) + (n - k) * math.log(1 - q)
            )
        if cdf >= confidence:
            return min(k, n - 1)
        comb = comb * (n - k) // (k + 1)
    return n - 1


#: the quantile of the wait distribution that QuantilePredictor bounds,
#: and the confidence of the bound.
QUANTILE = 0.75
CONFIDENCE = 0.95
#: the forecast (seconds) on too thin a history: fewer than MIN_SAMPLES
#: waits for the quantile bound, none for the moving average.
PRIOR_S = 1800.0
MIN_SAMPLES = 8
#: EwmaPredictor's weight of the newest wait.
EWMA_ALPHA = 0.2


class QuantilePredictor:
    """Binomial (QBETS-like) upper bound on the ``QUANTILE`` of queue
    waits, at ``CONFIDENCE``."""

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
        if len(waits) < MIN_SAMPLES:
            return PRIOR_S
        xs = np.sort(np.asarray(waits))
        return float(xs[binomial_rank(len(xs), QUANTILE, CONFIDENCE)])

    def _relevant_waits(
        self, history: Sequence[WaitSample], cores: Optional[int]
    ) -> list:
        if cores is None:
            return [w for _, w, _ in history]
        lo, hi = cores / 4, cores * 4
        subset = [w for _, w, c in history if lo <= c <= hi]
        if len(subset) >= MIN_SAMPLES:
            return subset
        return [w for _, w, _ in history]


class EwmaPredictor:
    """Exponentially weighted moving average of recent waits."""

    def predict(
        self,
        history: Sequence[WaitSample],
        cores: Optional[int] = None,
    ) -> float:
        waits = [w for _, w, _ in history]
        if not waits:
            return PRIOR_S
        estimate = waits[0]
        for w in waits[1:]:
            estimate = EWMA_ALPHA * w + (1 - EWMA_ALPHA) * estimate
        return float(estimate)
