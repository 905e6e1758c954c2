"""Sampled-wait resources: the alternative the DES substrate rejects.

DESIGN.md's first design decision is to *simulate* the batch queue so
queue waits emerge from contention, rather than sampling waits from a
fitted distribution. This module implements the rejected alternative so
the choice can be measured: a :class:`SampledWaitCluster` holds each
submitted job PENDING for a duration drawn i.i.d. from a lognormal
fitted to a reference emergent run, then starts it unconditionally.

What the sampled model gets wrong — and what the ablation measures — is
*correlation*: on a real (or emergent) machine, two pilots submitted to
the same queue in the same hour see correlated waits (they sit behind
the same backlog), and a wait observed now predicts the wait a moment
later. I.i.d. sampling destroys that structure, which flatters
multi-pilot strategies (independent draws are what the min-of-k argument
assumes) and erases the value of the bundle's predictive interface.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..des import Simulation
from .job import BatchJob, JobState
from .machine import Cluster


def fit_lognormal_waits(waits: Sequence[float]) -> Tuple[float, float]:
    """Fit (mu, sigma) of a lognormal to observed waits (floored at 1 s)."""
    xs = np.log(np.maximum(1.0, np.asarray(list(waits), dtype=float)))
    if xs.size == 0:
        raise ValueError("cannot fit a wait distribution to no samples")
    sigma = float(xs.std(ddof=0))
    return float(xs.mean()), max(sigma, 1e-6)


class SampledWaitCluster(Cluster):
    """A resource whose queue is a random-number generator.

    Jobs wait ``lognormal(mu, sigma)`` seconds i.i.d., then always start:
    capacity never blocks and no scheduler pass ever runs. Starting,
    finishing, cancelling and killing go through the base
    :class:`Cluster` code, so ``free_cores`` and ``utilization`` track
    the cores running jobs hold; under the model's oversubscription
    ``free_cores`` can go negative and ``utilization`` exceed 1. Use
    only for the emergent-vs-sampled ablation.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        nodes: int,
        cores_per_node: int,
        wait_mu: float,
        wait_sigma: float,
        stream: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> None:
        super().__init__(sim, name, nodes, cores_per_node, **kwargs)
        self.wait_mu = wait_mu
        self.wait_sigma = wait_sigma
        self.rng = stream if stream is not None else sim.rng.get(
            f"sampled-wait/{name}"
        )

    def _enqueue(self, job: BatchJob) -> None:
        if job.state in (JobState.CANCELLED, JobState.FAILED):
            return  # cancelled/killed during the submit overhead window
        job.submit_time = self.sim.now
        self._pending.append(job)
        self._pending_uids.add(job.uid)
        self._transition(job, JobState.PENDING)
        wait = float(self.rng.lognormal(self.wait_mu, self.wait_sigma))
        self.sim.call_in(wait, self._sampled_start, job)

    def _sampled_start(self, job: BatchJob) -> None:
        # Capacity never blocks in the sampled model (waits are the
        # model, not the machine), so the job skips _run_picks' check.
        if job.state is JobState.PENDING:  # not cancelled while "queued"
            self._start(job)

    def _schedule_dispatch(self) -> None:
        """The scheduler never runs: waits are sampled, not scheduled."""
