"""The telemetry hub: one event bus for spans, instants, and metrics.

Every :class:`~repro.des.Simulation` owns a hub (``sim.telemetry``),
disabled by default so untelemetered runs pay only an ``enabled`` check
per instrumentation point. Enabled, the hub records:

* **spans** via the context-manager API (``with hub.span(...)``) for
  nested work, or via :meth:`transition` for state-machine tracks where
  each state's span ends when the next begins (pilot/unit lifecycles);
* **instants** — zero-duration markers (faults landing, health events);
* **metric samples** — full registry snapshots on a virtual-time
  cadence driven by :meth:`start_sampler`.

The hub's canonical rendering covers only virtual-time fields, so its
:meth:`digest` is byte-stable across two runs of the same seed even
though every span also carries wall-clock timings for the profiler and
the Perfetto wall track.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from .digest import canonical_json, sha256_digest
from .metrics import MetricsRegistry
from .profiler import KernelProfiler
from .spans import Span, _plain


class _NullSpanCtx:
    """Shared no-op context manager handed out while the hub is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL = _NullSpanCtx()


class _SpanCtx:
    """Context manager closing one live span; yields the span itself."""

    __slots__ = ("_hub", "_span")

    def __init__(self, hub: "TelemetryHub", span: Span) -> None:
        self._hub = hub
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: object) -> bool:
        self._hub._end(self._span)
        return False


@dataclass
class TelemetrySummary:
    """The per-execution telemetry digest stored on an ExecutionReport."""

    n_spans: int
    n_instants: int
    n_samples: int
    digest: str
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: the enactment steps' (name, t0, t1) — what the Gantt renderer draws.
    em_steps: List[Tuple[str, float, float]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "n_spans": self.n_spans,
            "n_instants": self.n_instants,
            "n_samples": self.n_samples,
            "digest": self.digest,
            "metrics": self.metrics,
            "em_steps": [[n, t0, t1] for n, t0, t1 in self.em_steps],
        }


class TelemetryHub:
    """Spans + instants + metrics + profiler behind one enable switch."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        run_id: str = "run",
    ) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.run_id = run_id
        self.enabled = False
        self.spans: List[Span] = []
        self.instants: List[Dict[str, Any]] = []
        self.samples: List[Dict[str, Any]] = []
        self.metrics = MetricsRegistry()
        self.profiler: Optional[KernelProfiler] = None
        self._stack: List[Span] = []
        self._track_open: Dict[Tuple[str, str], Span] = {}
        self._next_sid = 1
        self._sampler_event = None
        self._on_sample: Optional[Callable[["TelemetryHub", float], None]] = None

    # -- switches ------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def attach_profiler(self) -> KernelProfiler:
        """Create (or return) the kernel profiler; the kernel times into it."""
        if self.profiler is None:
            self.profiler = KernelProfiler()
        return self.profiler

    # -- spans ---------------------------------------------------------------

    def span(self, category: str, name: str, track: str = "main", **attrs: Any):
        """Open a nested span; use as ``with hub.span(...) as sp:``.

        While the hub is disabled this returns a shared no-op context
        (entering yields ``None``), so call sites need no guard.
        """
        if not self.enabled:
            return _NULL
        span = Span(
            sid=self._next_sid,
            parent=self._stack[-1].sid if self._stack else None,
            category=category,
            name=name,
            track=track,
            t0=self._clock(),
            w0=perf_counter(),
            attrs=attrs,
        )
        self._next_sid += 1
        self.spans.append(span)
        self._stack.append(span)
        return _SpanCtx(self, span)

    def _end(self, span: Span) -> None:
        span.t1 = self._clock()
        span.w1 = perf_counter()
        # Generator processes interleave, so the closing span is usually
        # — but not necessarily — the top of the stack.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:
            try:
                self._stack.remove(span)
            except ValueError:
                pass

    def transition(
        self,
        category: str,
        track: str,
        name: str,
        final: bool = False,
        **attrs: Any,
    ) -> None:
        """State-machine spans: end the track's open span, begin the next.

        A ``final`` transition contributes a zero-duration span (the
        terminal state is an event, not an interval) and leaves the
        track closed.
        """
        if not self.enabled:
            return
        now = self._clock()
        wall = perf_counter()
        key = (category, track)
        open_span = self._track_open.pop(key, None)
        if open_span is not None:
            open_span.t1 = now
            open_span.w1 = wall
        span = Span(
            sid=self._next_sid,
            parent=None,
            category=category,
            name=name,
            track=track,
            t0=now,
            w0=wall,
            attrs=attrs,
        )
        self._next_sid += 1
        self.spans.append(span)
        if final:
            span.t1 = now
            span.w1 = wall
        else:
            self._track_open[key] = span

    def instant(
        self, category: str, name: str, track: str = "main", **attrs: Any
    ) -> None:
        """Record a zero-duration marker (fault landed, breaker opened)."""
        if not self.enabled:
            return
        self.instants.append({
            "t": self._clock(),
            "category": category,
            "name": name,
            "track": track,
            "attrs": _plain(attrs),
        })

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended (context stack + state tracks)."""
        return list(self._stack) + list(self._track_open.values())

    def close_open_spans(self) -> int:
        """Force-close every open span at the current clocks.

        Returns how many were closed; used at shutdown so exports never
        carry half-open records.
        """
        pending = self.open_spans()
        for span in pending:
            self._end(span)
        self._track_open.clear()
        self._stack.clear()
        return len(pending)

    # -- virtual-time sampling ----------------------------------------------

    def sample(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Snapshot the metrics registry at virtual time ``now``."""
        record = {"t": self._clock() if now is None else now}
        record.update(self.metrics.snapshot())
        self.samples.append(record)
        return record

    def start_sampler(
        self,
        sim,
        interval_s: float,
        on_sample: Optional[Callable[["TelemetryHub", float], None]] = None,
    ) -> None:
        """Sample the registry every ``interval_s`` *virtual* seconds.

        The sampler keeps exactly one pending kernel event alive, so
        :meth:`stop_sampler` must be called before expecting a
        run-until-empty simulation to terminate.
        """
        if interval_s <= 0:
            raise ValueError("sample interval must be positive")
        self.stop_sampler(sim)
        self._on_sample = on_sample

        def tick() -> None:
            self.sample(sim.now)
            if self._on_sample is not None:
                self._on_sample(self, sim.now)
            self._sampler_event = sim.call_in(interval_s, tick)

        self._sampler_event = sim.call_in(interval_s, tick)

    def stop_sampler(self, sim) -> None:
        if self._sampler_event is not None:
            sim.cancel(self._sampler_event)
            self._sampler_event = None
        self._on_sample = None

    # -- reproducibility -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical (virtual-time only) rendering of everything recorded."""
        return {
            "run_id": self.run_id,
            "spans": [s.as_dict() for s in self.spans],
            "instants": self.instants,
            "samples": self.samples,
            "metrics": self.metrics.snapshot(),
        }

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """SHA-256 of the canonical rendering — seed-stable by design."""
        return sha256_digest(self.canonical_json())

    def summary(self) -> str:
        return (
            f"telemetry: {len(self.spans)} spans, {len(self.instants)} "
            f"instants, {len(self.samples)} samples; "
            f"digest {self.digest()[:12]}"
        )

    def execution_summary(
        self, em_steps: Optional[List[Span]] = None
    ) -> TelemetrySummary:
        """The compact per-execution record reports and sessions keep."""
        steps = [
            (s.name, s.t0, s.t1 if s.t1 is not None else s.t0)
            for s in (em_steps or [])
        ]
        return TelemetrySummary(
            n_spans=len(self.spans),
            n_instants=len(self.instants),
            n_samples=len(self.samples),
            digest=self.digest(),
            metrics=self.metrics.snapshot(),
            em_steps=steps,
        )
