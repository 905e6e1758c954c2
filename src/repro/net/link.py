"""Fair-share network link model.

A :class:`Link` carries any number of concurrent transfers; at every
instant the link bandwidth is split equally among the active flows
(processor sharing — the standard fluid model for TCP fair share).
Completion times are recomputed whenever a flow joins or leaves, so a
transfer that starts alone and is later joined by nine others slows down
tenfold, exactly the congestion behaviour that makes data staging time
grow with task count in the paper's experiments.
"""

from __future__ import annotations

from operator import attrgetter

from typing import Dict, Optional

from ..des import EventHandle, Signal, Simulation


#: C-level key extractor for the soonest-to-finish scan.
_REMAINING = attrgetter("remaining_bytes")

class Transfer(Signal):
    """One flow on a link; waitable, fires when the last byte arrives."""

    def __init__(
        self,
        sim: Simulation,
        link: "Link",
        size_bytes: float,
        label: str = "",
    ) -> None:
        super().__init__(sim)
        self.link = link
        self.size_bytes = float(size_bytes)
        self.label = label or f"transfer@{link.name}"
        self.remaining_bytes = float(size_bytes)
        self.start_time = sim.now
        self.end_time: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time


class Link:
    """A shared, bidirectionally-symmetric WAN link."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        bandwidth_bytes_per_s: float,
        latency_s: float = 0.05,
    ) -> None:
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth_bytes_per_s)
        self.latency = float(latency_s)
        #: degradation factor in [0, 1]; 1 is healthy, 0 is partitioned.
        #: Estimates keep using ``bandwidth`` (predictions are blind to
        #: faults); only the fluid machinery sees the effective rate.
        self._degradation = 1.0
        self._active: Dict[int, Transfer] = {}
        self._last_update = 0.0
        self._completion_event: Optional[EventHandle] = None
        self.completed_transfers = 0
        self.bytes_moved = 0.0

    # -- public interface -------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._active)

    @property
    def effective_bandwidth(self) -> float:
        """Bytes/s the link currently carries (after any degradation)."""
        return self.bandwidth * self._degradation

    @property
    def degradation(self) -> float:
        return self._degradation

    @property
    def is_partitioned(self) -> bool:
        return self._degradation == 0.0

    @property
    def current_rate_per_flow(self) -> float:
        """Bytes/s each active flow is currently receiving."""
        n = len(self._active)
        eff = self.effective_bandwidth
        return eff / n if n else eff

    def set_degradation(self, factor: float) -> None:
        """Throttle the link to ``factor`` of its bandwidth (0 = partition).

        In-flight transfers keep their progress; their completion times
        are recomputed at the new rate. While partitioned, flows stall
        (no completion is scheduled) until the link is restored.
        """
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"degradation factor must be in [0, 1], got {factor}")
        if factor == self._degradation:
            return
        self._drain_elapsed()
        self._degradation = float(factor)
        self.sim.telemetry.instant(
            "net",
            "partitioned" if factor == 0.0 else
            ("degraded" if factor < 1.0 else "restored"),
            track=f"link/{self.name}", factor=factor,
        )
        self._reschedule()

    def restore(self) -> None:
        """Return the link to full bandwidth."""
        self.set_degradation(1.0)

    def transfer(self, size_bytes: float, label: str = "") -> Transfer:
        """Start moving ``size_bytes``; returns a waitable Transfer.

        The flow joins the link after the propagation latency; zero-byte
        transfers complete after just the latency.
        """
        if size_bytes < 0:
            raise ValueError("transfer size must be non-negative")
        t = Transfer(self.sim, self, size_bytes, label)
        self.sim.call_in(self.latency, self._admit, t)
        return t

    # -- fluid-flow machinery -----------------------------------------------------

    def _admit(self, t: Transfer) -> None:
        if t.remaining_bytes <= 0:
            self._complete(t)
            return
        self._drain_elapsed()
        self._active[id(t)] = t
        self._reschedule()

    def _drain_elapsed(self) -> None:
        """Account bytes moved since the last membership change."""
        now = self.sim._now  # property bypass on the hot path
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._active:
            return
        rate = self.effective_bandwidth / len(self._active)
        if rate <= 0:
            return  # partitioned: no bytes moved
        moved = rate * elapsed
        for t in self._active.values():
            left = t.remaining_bytes - moved
            t.remaining_bytes = left if left > 0.0 else 0.0

    def _reschedule(self) -> None:
        if self._completion_event is not None:
            self.sim.cancel(self._completion_event)
            self._completion_event = None
        if not self._active:
            return
        if self.is_partitioned:
            return  # flows stall until the link is restored
        rate = self.effective_bandwidth / len(self._active)
        soonest = min(self._active.values(), key=_REMAINING)
        delay = soonest.remaining_bytes / rate
        self._completion_event = self.sim.call_in(
            delay, self._on_completion, soonest
        )

    def _on_completion(self, expected: Transfer) -> None:
        self._completion_event = None
        self._drain_elapsed()
        # The event fired exactly when `expected` drains; force its residual
        # to zero so float round-off can never starve the clock by
        # rescheduling at now + epsilon forever.
        expected.remaining_bytes = 0.0
        done = [t for t in self._active.values() if t.remaining_bytes <= 1e-9]
        for t in done:
            del self._active[id(t)]
            self._complete(t)
        self._reschedule()

    def _complete(self, t: Transfer) -> None:
        t.end_time = self.sim.now
        self.completed_transfers += 1
        self.bytes_moved += t.size_bytes
        t.succeed(t)
