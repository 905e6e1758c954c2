"""Synthetic background workloads for the simulated resources.

The paper's central observable — queue wait time ``Tw`` — is an emergent
property of production batch systems under shared load. We reproduce it
mechanistically: each resource runs a stochastic stream of background
jobs whose mix is modelled on published XSEDE workload statistics
(XDMoD; Feitelson's workload archive models):

* Poisson arrivals, optionally modulated by a diurnal cycle;
* core counts from a truncated log-uniform ("power-of-two-ish") mix with
  a heavy tail of large jobs — large jobs are what create convoys and
  heavy-tailed waits;
* runtimes lognormal, spanning minutes to many hours (the paper notes
  36% of 2014 XSEDE jobs ran 30 s – 30 min);
* requested walltimes overestimate runtimes by a user-dependent factor,
  which is what opens backfill holes.

The generator targets an *offered load* (utilization fraction) and derives
the arrival rate from the mean job size, so presets stay calibrated when
their size/runtime mixes change.

Jobs are drawn from one PCG64 generator per resource. A numpy scalar
call costs more than the draw itself, so the sampler computes every
variate in Python from the bit generator's raw outputs (:class:`RawDraws`)
and does the weighted choice, clip and uniform arithmetic on those
draws. The values and the generator state are bit-identical to the
numpy calls (``docs/INTERNALS.md``, "Background job sampling").

Arrivals are a lazy stream of accepted instants, thinned from a
homogeneous Poisson process. The cluster queues each arrival in one
kernel event at ``arrival + submit_overhead``, drawing its job there and
then the next accepted instant, so a queued job costs one event and a
rejected candidate none (``docs/INTERNALS.md``, "Arrivals").
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..des import Simulation
from .job import BatchJob
from .machine import Cluster


#: numpy's tolerance on a probability vector's sum.
_WEIGHT_SUM_ATOL = math.sqrt(sys.float_info.epsilon)

#: the number of 32-bit values, and the largest ``n`` that
#: :meth:`RawDraws.integers` takes.
_UINT32_SPAN = 2**32


class RawDraws:
    """numpy ``Generator`` draws computed from a PCG64 stream's raw output.

    A numpy scalar call costs about a microsecond of argument handling
    around a draw of a few nanoseconds. Each method here gives the value
    the named ``Generator`` call gives, from the same bit-generator
    outputs in the same order (``docs/INTERNALS.md``, "Background job
    sampling"):

    * :meth:`random` is ``next_double``: the top 53 bits of one raw
      64-bit output, times 2**-53.
    * :meth:`lognormal` and :meth:`exponential` scale numpy's own
      standard normal and standard exponential draws, as numpy's C code
      does.
    * :meth:`integers` is numpy's Lemire rejection over 32-bit draws.
      PCG64 serves those in halves of one raw output, the low half
      first, and buffers the high half; this class holds that buffer.

    The helper reads the pending half, if any, from the stream's state
    when it is built and holds the buffer from then on, so every later
    draw from the stream must go through it. :meth:`state` is the
    bit-generator state numpy would hold after the same calls.
    """

    __slots__ = (
        "_bitgen", "_raw", "_half", "_uinteger",
        "_standard_normal", "_standard_exponential",
    )

    def __init__(self, stream: np.random.Generator) -> None:
        bitgen = stream.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(
                "RawDraws needs a PCG64 stream, got "
                f"{type(bitgen).__name__}"
            )
        state = bitgen.state
        self._bitgen = bitgen
        self._raw = bitgen.random_raw
        #: the buffered high half, or None when no half is pending.
        self._half: Optional[int] = (
            state["uinteger"] if state["has_uint32"] else None
        )
        #: the last half buffered, which numpy's state keeps when spent.
        self._uinteger: int = state["uinteger"]
        generator = np.random.Generator(bitgen)
        self._standard_normal = generator.standard_normal
        self._standard_exponential = generator.standard_exponential

    def state(self) -> dict:
        """The bit-generator state with the pending half folded in."""
        state = self._bitgen.state
        state["has_uint32"] = int(self._half is not None)
        state["uinteger"] = self._uinteger
        return state

    def random(self) -> float:
        """``Generator.random()``."""
        return (self._raw() >> 11) * 2.0**-53

    def lognormal(self, mean: float, sigma: float) -> float:
        """``Generator.lognormal(mean, sigma)`` for ``sigma >= 0``."""
        return math.exp(mean + sigma * self._standard_normal())

    def exponential(self, scale: float) -> float:
        """``Generator.exponential(scale)`` for ``scale >= 0``."""
        return scale * self._standard_exponential()

    def integers(self, n: int) -> int:
        """``int(Generator.integers(n))`` for ``1 <= n <= 2**32``."""
        if n == 1:
            return 0
        if n == _UINT32_SPAN:
            return self._uint32()
        m = self._uint32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (_UINT32_SPAN - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._uint32() * n
        return m >> 32

    def _uint32(self) -> int:
        """PCG64's ``next_uint32``: a buffered half, else the low half of
        a fresh raw output (buffering its high half)."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        raw = self._raw()
        self._half = self._uinteger = raw >> 32
        return raw & 0xFFFFFFFF


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of a resource's background job mix."""

    #: target offered load as a fraction of total cores (>= ~0.9 produces
    #: persistent queues; > 1.0 produces growing queues).
    offered_load: float = 0.95

    #: candidate core counts and their probabilities.
    core_choices: Sequence[int] = (1, 4, 16, 32, 64, 128, 256, 512, 1024)
    core_weights: Sequence[float] = (
        0.28, 0.20, 0.16, 0.12, 0.09, 0.07, 0.045, 0.02, 0.015,
    )

    #: lognormal runtime parameters (of underlying normal), seconds.
    runtime_log_mean: float = math.log(1.5 * 3600.0)
    runtime_log_sigma: float = 1.1
    runtime_min: float = 60.0
    runtime_max: float = 24 * 3600.0

    #: walltime request = runtime * U(min, max) overestimation factor,
    #: clipped to the resource's queue limit.
    overestimate_min: float = 1.1
    overestimate_max: float = 3.0
    walltime_limit: float = 24 * 3600.0

    #: fraction of users who just request the queue's walltime limit.
    sloppy_request_fraction: float = 0.15

    #: diurnal arrival-rate modulation amplitude in [0, 1); 0 disables it.
    diurnal_amplitude: float = 0.3
    diurnal_period: float = 24 * 3600.0

    #: distinct background user accounts (for fairshare experiments).
    n_users: int = 24

    def __post_init__(self) -> None:
        if not (0 < self.offered_load):
            raise ValueError("offered_load must be positive")
        if len(self.core_choices) != len(self.core_weights):
            raise ValueError("core_choices and core_weights length mismatch")
        # What numpy's choice() and uniform() would reject at draw time:
        # the sampler does their arithmetic itself, so check it here.
        weights = [float(w) for w in self.core_weights]
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ValueError(
                f"core_weights must be finite and non-negative, got {weights}"
            )
        total = math.fsum(weights)
        if abs(total - 1.0) > _WEIGHT_SUM_ATOL:
            raise ValueError(f"core_weights must sum to 1, got {total!r}")
        if not (
            math.isfinite(self.overestimate_max - self.overestimate_min)
            and self.overestimate_min <= self.overestimate_max
        ):
            raise ValueError(
                "overestimate_min must not exceed a finite overestimate_max"
            )
        if not (0 <= self.diurnal_amplitude < 1):
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        # numpy's lognormal() rejects a sigma with its sign bit set, -0.0
        # included; NaN passes.
        sigma = float(self.runtime_log_sigma)
        if math.copysign(1.0, sigma) < 0 and not math.isnan(sigma):
            raise ValueError(
                f"runtime_log_sigma must not be negative, got {sigma!r}"
            )
        if not (1 <= self.n_users <= _UINT32_SPAN):
            raise ValueError(
                f"n_users must be in [1, 2**32], got {self.n_users!r}"
            )

    @property
    def mean_cores(self) -> float:
        return float(
            np.dot(np.asarray(self.core_choices), np.asarray(self.core_weights))
        )

    @property
    def mean_runtime(self) -> float:
        """Exact mean of the *clipped* lognormal runtime.

        Jobs are sampled lognormal and clipped into
        ``[runtime_min, runtime_max]``, so the mean is::

            E = a*P(X<a) + b*P(X>b) + E[X; a<=X<=b]

        with the partial expectation of a lognormal
        ``E[X; X<=k] = exp(mu + s^2/2) * Phi((ln k - mu - s^2)/s)``.
        Getting this right matters: the arrival rate is derived from it,
        and a few percent of bias in mean work per job compounds into a
        materially different offered load on long-tailed mixes.
        """
        mu, s = self.runtime_log_mean, self.runtime_log_sigma
        a, b = self.runtime_min, self.runtime_max
        if s == 0:
            return float(min(max(math.exp(mu), a), b))

        def phi(x: float) -> float:
            return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

        ln_a, ln_b = math.log(a), math.log(b)
        p_below = phi((ln_a - mu) / s)
        p_above = 1.0 - phi((ln_b - mu) / s)
        untruncated = math.exp(mu + s * s / 2.0)
        partial = untruncated * (
            phi((ln_b - mu - s * s) / s) - phi((ln_a - mu - s * s) / s)
        )
        return float(a * p_below + b * p_above + partial)


class BackgroundWorkload:
    """Generates background jobs for one cluster.

    ``prime()`` submits a starting load through :meth:`Cluster.submit`.
    ``start()`` hands the arrival stream to the cluster, which queues
    each accepted arrival in one kernel event and pulls the next one
    from here, so the stream runs without a process or a timeout.
    """

    def __init__(
        self,
        sim: Simulation,
        cluster: Cluster,
        profile: WorkloadProfile,
        stream: Optional[np.random.Generator] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.profile = profile
        self.max_cores = cluster.total_cores
        self.rng = stream if stream is not None else sim.rng.get(
            f"workload/{cluster.name}"
        )
        #: jobs queued by the arrival stream (prime() jobs excluded).
        self.submitted = 0
        self._stop_at = math.inf
        self._stream: Iterator[float] = iter(())
        # Core-count sampling table, built as numpy's choice() builds it.
        cdf = np.asarray(profile.core_weights, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()
        self._choices = [int(c) for c in np.asarray(profile.core_choices)]
        self._runtime_min = float(profile.runtime_min)
        self._runtime_max = float(profile.runtime_max)
        self._over_min = float(profile.overestimate_min)
        self._over_span = float(profile.overestimate_max) - self._over_min
        #: every draw of the stream, as numpy would make it.
        self.draws = RawDraws(self.rng)
        # The draws' bound methods and the profile's scalars, looked up
        # once instead of once per draw: about a thousand jobs are drawn
        # per cell.
        self._random = self.draws.random
        self._lognormal = self.draws.lognormal
        self._integers = self.draws.integers
        self._log_mean = profile.runtime_log_mean
        self._log_sigma = profile.runtime_log_sigma
        self._sloppy = profile.sloppy_request_fraction
        self._walltime_limit = profile.walltime_limit
        self._n_users = profile.n_users
        # user labels, formatted once per account drawn: interned without
        # a per-account table (``n_users`` may be 2**32).
        self._labels: Dict[int, str] = {}
        # Arrival rate so that E[cores * runtime] * lambda = load * capacity.
        work_per_job = profile.mean_cores * profile.mean_runtime
        self.base_rate = (
            profile.offered_load * cluster.total_cores / work_per_job
        )

    # -- job synthesis ----------------------------------------------------------

    def draw_job(self) -> Tuple[int, float, float, int]:
        """One job draw: (cores, runtime, walltime, user index).

        Bit-identical to the numpy calls named in the comments, in the
        same order on the same generator (through :class:`RawDraws`).
        Walltime may undercut runtime when runtime is near the queue
        limit; such jobs get killed at the limit, as on real systems.
        """
        random = self._random
        # rng.choice(core_choices, p=core_weights)
        cores = self._choices[bisect_right(self._cdf, random())]
        if cores > self.max_cores:
            cores = self.max_cores
        # np.clip(rng.lognormal(...), runtime_min, runtime_max), as
        # min(max(x, lo), hi) without the two builtin calls
        runtime = self._lognormal(self._log_mean, self._log_sigma)
        if self._runtime_min > runtime:
            runtime = self._runtime_min
        if self._runtime_max < runtime:
            runtime = self._runtime_max
        if random() < self._sloppy:
            walltime = self._walltime_limit
        else:
            # rng.uniform(overestimate_min, overestimate_max)
            factor = self._over_min + self._over_span * random()
            walltime = runtime * factor
            if self._walltime_limit < walltime:
                walltime = self._walltime_limit
        if walltime < 60.0:
            walltime = 60.0
        # int(rng.integers(n_users))
        user = self._integers(self._n_users)
        return cores, runtime, walltime, user

    def draw_residual(self) -> float:
        """Residual-life factor of a prime() fill job.

        Bit-identical to ``rng.uniform(0.25, 1.0)``.
        """
        return 0.25 + 0.75 * self._random()

    def make_job(self) -> BatchJob:
        """Sample one background job from the profile."""
        cores, runtime, walltime, user = self.draw_job()
        label = self._labels.get(user)
        if label is None:
            label = self._labels[user] = f"bg{user:02d}"
        return BatchJob(cores, runtime, walltime, label)

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (jobs/s) with diurnal modulation."""
        p = self.profile
        if p.diurnal_amplitude == 0:
            return self.base_rate
        phase = 2 * math.pi * (t % p.diurnal_period) / p.diurnal_period
        return self.base_rate * (1 + p.diurnal_amplitude * math.sin(phase))

    # -- arrivals ---------------------------------------------------------------

    def start(self) -> None:
        """Begin the arrival stream (runs until stop() or end of sim).

        Draws the first accepted arrival now; from then on each queued
        job costs one kernel event (see :meth:`Cluster.queue_arrivals`).
        """
        self._stream = self._accepted_arrivals(self.sim.now)
        self.cluster.queue_arrivals(self)

    def stop(self) -> None:
        """Stop the stream: a job is queued iff it arrived by now."""
        if self.sim.now < self._stop_at:
            self._stop_at = self.sim.now

    def next_arrival(self) -> float:
        """Instant of the next accepted arrival (draws its candidates)."""
        return next(self._stream)

    def job_due(self, arrival: float) -> Optional[BatchJob]:
        """The job arriving at ``arrival``, or None if it came after stop()."""
        if arrival > self._stop_at:
            return None
        self.submitted += 1
        return self.make_job()

    def _accepted_arrivals(self, t: float) -> Iterator[float]:
        """Thinning for the non-homogeneous Poisson process after ``t``.

        Per candidate: the exponential gap, then the thinning uniform
        (``rate_at`` of the candidate's own instant). The caller draws
        an accepted arrival's job before it asks for the next arrival,
        so the stream sees gap, uniform, then the job's draws.
        """
        exponential = self.draws.exponential
        random = self._random
        rate_max = self.base_rate * (1 + self.profile.diurnal_amplitude)
        scale = 1.0 / rate_max
        rate_at = self.rate_at
        while True:
            t += exponential(scale)
            if random() <= rate_at(t) / rate_max:
                yield t

    def prime(
        self,
        fill_fraction: float = 1.0,
        backlog_hours: float = 1.0,
    ) -> int:
        """Pre-load the resource as if the workload had been running.

        Two phases model a machine in steady state at t=0:

        1. *Residual-life fill*: jobs sampled from the profile, with their
           remaining runtime scaled by a uniform residual factor (they are
           "already partway through"), until ``fill_fraction`` of the cores
           is spoken for. These start immediately on the empty machine.
        2. *Backlog*: whole jobs totalling ``backlog_hours`` of machine
           capacity in core-hours are queued behind the fill. This directly
           controls the initial queue depth, which is the main knob for the
           queue waits new arrivals (e.g. pilots) experience.

        Returns the number of jobs injected. Must be called at simulated
        time 0, before ``start()``.
        """
        if self.sim.now != 0:
            raise RuntimeError("prime() must be called at simulated time 0")
        if not (0 <= fill_fraction <= 1):
            raise ValueError("fill_fraction must be in [0, 1]")
        injected = 0
        capacity = self.cluster.total_cores

        # Phase 1: fill the machine with partially-elapsed jobs.
        planned = 0
        misses = 0
        while planned < fill_fraction * capacity and misses < 64:
            job = self.make_job()
            if planned + job.cores > capacity:
                misses += 1
                continue
            job.runtime = max(60.0, job.runtime * self.draw_residual())
            self.cluster.submit(job)
            planned += job.cores
            injected += 1

        # Phase 2: queue a backlog of whole jobs.
        target_work = backlog_hours * 3600.0 * capacity
        queued_work = 0.0
        while queued_work < target_work:
            job = self.make_job()
            self.cluster.submit(job)
            queued_work += job.cores * job.runtime
            injected += 1
        return injected


def stream_cache_stats() -> Dict[str, int]:
    """Zero counters of the removed workload stream cache.

    Kept only because ``bench/rep.py`` still reads them; the benchmark
    reports a 0 hit ratio, as the cache did in every campaign.
    """
    return {"hits": 0, "misses": 0}
