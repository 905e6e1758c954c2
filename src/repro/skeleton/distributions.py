"""Samplers for skeleton task attributes.

The Application Skeleton abstraction lets task lengths and file sizes be
constants, statistical distributions, or polynomial functions of other
parameters (e.g. output size as a function of task runtime). Each sampler
here is a small declarative object with a ``sample(rng, context)`` method;
``context`` carries the already-sampled attributes of the same task so
polynomials can reference them.

Samplers can also be parsed from compact spec strings, the notation used
by skeleton configuration files::

    "900"                          -> Constant(900)
    "uniform(60, 1800)"            -> Uniform(60, 1800)
    "gauss(900, 300, 60, 1800)"    -> TruncatedGaussian(mean, std, lo, hi)
    "lognormal(6.8, 0.7)"          -> LogNormal(mu, sigma)
    "poly(input_size, 0.5, 10)"    -> Polynomial over a context variable
"""

from __future__ import annotations

import abc
import re
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np


class DistributionError(ValueError):
    """Raised for invalid sampler parameters or spec strings."""


class Sampler(abc.ABC):
    """Base class for declarative attribute samplers."""

    @abc.abstractmethod
    def sample(
        self, rng: np.random.Generator, context: Optional[Dict[str, float]] = None
    ) -> float:
        """Draw one value (context holds sibling attributes for Polynomial)."""


@dataclass(frozen=True)
class Constant(Sampler):
    """Always returns ``value``."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise DistributionError("Constant value must be non-negative")

    def sample(self, rng, context=None) -> float:
        return self.value

    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class Uniform(Sampler):
    """Uniform over [low, high]."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (0 <= self.low <= self.high):
            raise DistributionError(f"invalid Uniform bounds [{self.low}, {self.high}]")

    def sample(self, rng, context=None) -> float:
        return float(rng.uniform(self.low, self.high))

    def mean(self) -> float:
        return (self.low + self.high) / 2


@dataclass(frozen=True)
class TruncatedGaussian(Sampler):
    """Normal(mean, std) resampled into [low, high].

    This is the distribution of the paper's experiments 2 and 4: task
    durations Gaussian with mean 15 min, stdev 5 min, truncated to
    [1, 30] minutes. Resampling (rather than clipping) avoids the point
    masses at the bounds that clipping would create.
    """

    mu: float
    sigma: float
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise DistributionError("sigma must be non-negative")
        if not (self.low <= self.high):
            raise DistributionError("low must be <= high")
        if not (self.low <= self.mu <= self.high):
            raise DistributionError("mean outside truncation bounds")

    def sample(self, rng, context=None) -> float:
        for _ in range(1000):
            x = float(rng.normal(self.mu, self.sigma))
            if self.low <= x <= self.high:
                return x
        # Pathologically narrow band: fall back to clipping.
        return float(np.clip(rng.normal(self.mu, self.sigma), self.low, self.high))

    def mean(self) -> float:
        # Symmetric truncation around mu leaves the mean at mu; for the
        # asymmetric case this is an approximation good enough for planning.
        return self.mu


@dataclass(frozen=True)
class LogNormal(Sampler):
    """Lognormal with underlying normal (mu, sigma), optionally bounded."""

    mu: float
    sigma: float
    low: float = 0.0
    high: float = float("inf")

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise DistributionError("sigma must be non-negative")
        if self.low > self.high:
            raise DistributionError("low must be <= high")

    def sample(self, rng, context=None) -> float:
        return float(np.clip(rng.lognormal(self.mu, self.sigma), self.low, self.high))

    def mean(self) -> float:
        return float(
            np.clip(np.exp(self.mu + self.sigma**2 / 2), self.low, self.high)
        )


@dataclass(frozen=True)
class Polynomial(Sampler):
    """Polynomial of a context variable: sum(c_k * x**k).

    ``coefficients`` are ordered from degree 0 upward. The paper's example:
    output size as a binomial (degree-2) function of task runtime.
    """

    variable: str
    coefficients: Sequence[float]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise DistributionError("Polynomial needs at least one coefficient")

    def sample(self, rng, context=None) -> float:
        if not context or self.variable not in context:
            raise DistributionError(
                f"Polynomial needs context variable {self.variable!r}"
            )
        x = context[self.variable]
        value = sum(c * x**k for k, c in enumerate(self.coefficients))
        return max(0.0, float(value))


_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*\((.*)\)\s*$")


def parse_sampler(spec: "str | float | int | Sampler") -> Sampler:
    """Parse a spec string (or passthrough a number / Sampler) into a Sampler."""
    if isinstance(spec, Sampler):
        return spec
    if isinstance(spec, (int, float)):
        return Constant(float(spec))
    text = spec.strip()
    m = _SPEC_RE.match(text)
    if m is None:
        try:
            return Constant(float(text))
        except ValueError:
            raise DistributionError(f"cannot parse sampler spec {spec!r}") from None
    name, args_text = m.group(1), m.group(2)
    raw_args = [a.strip() for a in args_text.split(",")] if args_text.strip() else []
    if name == "poly":
        if len(raw_args) < 2:
            raise DistributionError("poly(variable, c0, ...) needs coefficients")
        return Polynomial(raw_args[0], tuple(float(a) for a in raw_args[1:]))
    try:
        args = [float(a) for a in raw_args]
    except ValueError:
        raise DistributionError(f"non-numeric argument in {spec!r}") from None
    if name == "constant" and len(args) == 1:
        return Constant(*args)
    if name == "uniform" and len(args) == 2:
        return Uniform(*args)
    if name in ("gauss", "gaussian", "normal") and len(args) == 4:
        return TruncatedGaussian(*args)
    if name == "lognormal" and len(args) in (2, 4):
        return LogNormal(*args)
    raise DistributionError(f"unknown sampler spec {spec!r}")
