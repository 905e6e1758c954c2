"""Fallible adaptor wrapper: SAGA submissions that can fail.

Production SAGA adaptors fail in two distinct ways: *transiently* (a CLI
round-trip times out, a GSI handshake drops — retrying usually works)
and *permanently* (the description is rejected, the account is invalid).
The wrapper reproduces both without touching the dialect adaptors: it
consults a :class:`SubmissionFaultModel` before delegating each submit.

The pilot layer is the consumer: :class:`~repro.pilot.PilotManager`
retries transient errors with exponential backoff and declares the pilot
failed on permanent errors or an exhausted retry budget.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..cluster import BatchJob
from ..cluster import JobState as NativeState
from .adaptors.base import Adaptor
from .description import JobDescription


class SubmitFault(Exception):
    """Base class for injected submission failures."""

    transient = False


class TransientSubmitError(SubmitFault):
    """The submission round-trip failed; retrying may succeed."""

    transient = True


class PermanentSubmitError(SubmitFault):
    """The submission was rejected; retrying cannot succeed."""


class SubmissionFaultModel:
    """Decides, per submission, whether the SAGA round-trip fails.

    Two fault sources compose:

    * scripted budgets — "fail the next N submissions on resource R"
      (consumed in submission order, fully deterministic);
    * hazards — per-submission coin flips at probability ``p`` within a
      simulated-time window, drawn from the fault plan's own RNG.

    Every injected failure is recorded to the fault log by the caller's
    ``on_fault`` callback.
    """

    def __init__(
        self,
        sim,
        rng,
        on_fault: Optional[Callable[[str, str, bool], None]] = None,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.on_fault = on_fault
        #: [resource | None, remaining count, permanent]
        self._scripted: List[list] = []
        #: (resource | None, p_fail, permanent, start, stop)
        self._hazards: List[Tuple[Optional[str], float, bool, float, float]] = []

    def add_scripted(
        self, count: int, resource: Optional[str] = None, permanent: bool = False
    ) -> None:
        self._scripted.append([resource, int(count), bool(permanent)])

    def add_hazard(
        self,
        p_fail: float,
        resource: Optional[str] = None,
        permanent: bool = False,
        start: float = 0.0,
        stop: float = float("inf"),
    ) -> None:
        self._hazards.append((resource, float(p_fail), bool(permanent), start, stop))

    def check(self, description: JobDescription, resource: str) -> None:
        """Raise a :class:`SubmitFault` if this submission must fail."""
        for entry in self._scripted:
            target, remaining, permanent = entry
            if remaining <= 0 or (target is not None and target != resource):
                continue
            entry[1] -= 1
            self._fail(description, resource, permanent, source="scripted")
        for target, p_fail, permanent, start, stop in self._hazards:
            if target is not None and target != resource:
                continue
            if not (start <= self.sim.now <= stop):
                continue
            if float(self.rng.random()) < p_fail:
                self._fail(description, resource, permanent, source="hazard")

    def _fail(
        self, description: JobDescription, resource: str, permanent: bool,
        source: str,
    ) -> None:
        if self.on_fault is not None:
            self.on_fault(resource, description.name or "job", permanent)
        exc = PermanentSubmitError if permanent else TransientSubmitError
        raise exc(
            f"injected {source} {'permanent' if permanent else 'transient'} "
            f"submission failure on {resource} for {description.name or 'job'}"
        )


class FallibleAdaptor:
    """Wraps any adaptor; consults a fault model before each submission.

    Everything else (translation, cancellation, latency) is delegated to
    the wrapped dialect adaptor, so the layers above see the identical
    interoperability contract — until a submission fails.
    """

    def __init__(self, inner: Adaptor, model: SubmissionFaultModel) -> None:
        self.cluster = inner.cluster
        self.inner = inner
        self.model = model
        self.scheme = inner.scheme
        self.submission_latency_s = inner.submission_latency_s
        self.injected_failures = 0

    def submit(
        self,
        description: JobDescription,
        on_native_transition: Callable[[BatchJob, NativeState, NativeState], None],
    ) -> BatchJob:
        try:
            self.model.check(description, self.cluster.name)
        except SubmitFault:
            self.injected_failures += 1
            raise
        return self.inner.submit(description, on_native_transition)

    def cancel(self, native: BatchJob) -> None:
        self.inner.cancel(native)
