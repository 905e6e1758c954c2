"""The metrics registry: counters, gauges, and histograms.

Instruments are cheap enough to update from hot paths (a counter
increment is one integer add), and the registry snapshots them all into
one deterministic, JSON-stable dict — the shape the virtual-time sampler
records and the telemetry digest hashes.

* a :class:`Counter` only goes up (events processed, scheduler passes);
* a :class:`Gauge` reads a live value, either set explicitly or pulled
  from a callback (heap size, units executing, breakers open);
* a :class:`Histogram` buckets observations against fixed boundaries
  with ``value <= boundary`` (Prometheus ``le``) semantics.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """A point-in-time value read through a callback (``None`` without one).

    Every gauge enters :meth:`MetricsRegistry.snapshot`, and so sampled
    telemetry and run digests: a gauge must read the same in equivalent
    runs, serial or in a forked worker.
    """

    __slots__ = ("name", "fn")

    def __init__(
        self, name: str, fn: Optional[Callable[[], Any]] = None
    ) -> None:
        self.name = name
        self.fn = fn

    def read(self) -> Any:
        return self.fn() if self.fn is not None else None


class Histogram:
    """Fixed-boundary histogram with ``value <= boundary`` buckets.

    ``boundaries`` must be strictly increasing; observations above the
    last boundary land in the implicit overflow (``+inf``) bucket.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "count")

    def __init__(self, name: str, boundaries: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError("a histogram needs at least one boundary")
        if any(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:])):
            raise ValueError("histogram boundaries must be strictly increasing")
        self.name = name
        self.boundaries = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left: a value equal to a boundary belongs to that
        # boundary's bucket (le semantics).
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.total += value
        self.count += 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Named instruments with get-or-create semantics and one snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(
        self, name: str, fn: Optional[Callable[[], Any]] = None
    ) -> Gauge:
        """Get or create a gauge; a non-None ``fn`` (re)binds the callback.

        Rebinding matters: each execution builds a fresh UnitManager, and
        the latest one's view is the one a live gauge should report.
        """
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name, fn)
        elif fn is not None:
            g.fn = fn
        return g

    def histogram(self, name: str, boundaries: Sequence[float]) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, boundaries)
        elif tuple(float(b) for b in boundaries) != h.boundaries:
            raise ValueError(
                f"histogram {name!r} already exists with different boundaries"
            )
        return h

    # -- read-out ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as one deterministic, JSON-stable dict.

        It feeds the virtual-time sampler and the telemetry digest, which
        must stay byte-identical across serial and parallel execution.
        """
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.read()
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.as_dict()
                for name, h in sorted(self._histograms.items())
            },
        }

    def render_table(self) -> str:
        """Human-readable summary of every instrument."""
        names = [
            *self._counters, *self._gauges, *self._histograms, "metric",
        ]
        # pad from the longest registered name so long metric names
        # (>38 chars) keep the columns aligned instead of overflowing.
        width = max(len(name) for name in names)
        lines = [f"{'metric':<{width}} | {'kind':<9} | value"]
        lines.append("-" * len(lines[0]))
        for name, c in sorted(self._counters.items()):
            lines.append(f"{name:<{width}} | counter   | {c.value}")
        for name, g in sorted(self._gauges.items()):
            value = g.read()
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"{name:<{width}} | gauge     | {shown}")
        for name, h in sorted(self._histograms.items()):
            mean = h.total / h.count if h.count else 0.0
            lines.append(
                f"{name:<{width}} | histogram | n={h.count} mean={mean:.3g} "
                f"buckets={list(h.counts)}"
            )
        return "\n".join(lines)


# -- Prometheus text exposition ------------------------------------------------

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a dotted registry name into a ``repro_``-prefixed
    Prometheus metric name."""
    return _PROM_BAD.sub("_", f"repro_{name}")


def _prom_value(value: Any) -> Optional[str]:
    """Format a value for exposition; None for non-numeric gauges."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return None


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as Prometheus text.

    Operates on the snapshot *shape* rather than a live registry so the
    same renderer serves the campaign monitor's own gauges, archived
    snapshots, and worker-side registries alike. Non-numeric gauge
    values (strings, None) are skipped — the exposition format is
    numbers only. Histograms emit cumulative ``le`` buckets plus
    ``_sum``/``_count``, matching the registry's ``value <= boundary``
    semantics.
    """
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {value}")
    for name, value in snapshot.get("gauges", {}).items():
        shown = _prom_value(value)
        if shown is None:
            continue
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {shown}")
    for name, h in snapshot.get("histograms", {}).items():
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        counts = h.get("counts", [])
        for boundary, count in zip(h.get("boundaries", []), counts):
            cumulative += count
            lines.append(f'{pname}_bucket{{le="{boundary}"}} {cumulative}')
        cumulative += counts[-1] if len(counts) > len(h.get("boundaries", [])) else 0
        lines.append(f'{pname}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{pname}_sum {h.get('sum', 0.0)}")
        lines.append(f"{pname}_count {h.get('count', 0)}")
    return "\n".join(lines) + "\n"
