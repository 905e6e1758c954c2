"""The kernel profiler: wall-clock attribution per event type.

The DES kernel dispatches every simulated event through one call site,
so timing that call site attributes the *entire* simulation wall cost to
named event types (callback qualnames) and, for process resumptions, to
named processes. When a benchmark regresses, the report says which layer
got slower instead of just "the run takes longer".

The kernel does the timing (two ``perf_counter`` reads around the
callback) and hands ``record`` the measured cost, so this module stays a
pure accumulator with no clock of its own.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

#: rows of each table of :meth:`KernelProfiler.report`.
TOP = 12


def label_for(callback: Callable[..., Any]) -> str:
    """A stable, human-meaningful name for a kernel callback."""
    qual = getattr(callback, "__qualname__", None)
    if qual is None:
        qual = type(callback).__name__
    return qual


class KernelProfiler:
    """Accumulates per-event-type and per-process wall-clock cost."""

    def __init__(self) -> None:
        #: label -> [dispatch count, summed wall seconds]
        self.by_label: Dict[str, List[float]] = {}
        #: process name -> [resume count, summed wall seconds]
        self.by_process: Dict[str, List[float]] = {}
        self.events = 0
        self.total_wall = 0.0

    # -- accumulation --------------------------------------------------------

    def record(self, callback: Callable[..., Any], wall_s: float) -> None:
        """Attribute one dispatched event's wall cost to its callback."""
        self.events += 1
        self.total_wall += wall_s
        label = label_for(callback)
        cell = self.by_label.get(label)
        if cell is None:
            cell = self.by_label[label] = [0, 0.0]
        cell[0] += 1
        cell[1] += wall_s
        owner = getattr(callback, "__self__", None)
        if owner is not None and hasattr(owner, "_generator"):
            # a Process method (resume/wait-done): attribute to the process
            pname = getattr(owner, "name", None) or "process"
            pcell = self.by_process.get(pname)
            if pcell is None:
                pcell = self.by_process[pname] = [0, 0.0]
            pcell[0] += 1
            pcell[1] += wall_s

    # -- read-out ------------------------------------------------------------

    def attributed_wall(self) -> float:
        """Wall seconds attributed to named event types (all of them)."""
        return sum(cell[1] for cell in self.by_label.values())

    def attributed_fraction(self) -> float:
        """Fraction of total kernel wall time carrying a named label.

        Every dispatch is labelled at record time, so this is 1.0 by
        construction — the acceptance bar (>= 0.95) guards against a
        future fast path that skips attribution.
        """
        if self.total_wall <= 0.0:
            return 1.0
        return self.attributed_wall() / self.total_wall

    def events_per_sec(self) -> float:
        return self.events / self.total_wall if self.total_wall > 0 else 0.0

    def top_labels(self) -> List[Tuple[str, int, float]]:
        """The ``TOP`` labels with the most wall time."""
        rows = [
            (label, int(cell[0]), cell[1])
            for label, cell in self.by_label.items()
        ]
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows[:TOP]

    def report(self) -> str:
        """Render the attribution table (event types, then processes)."""
        if self.events == 0:
            return "kernel profile: no events dispatched"
        lines = [
            f"kernel profile: {self.events} events, "
            f"{self.total_wall * 1e3:.1f} ms wall, "
            f"{self.events_per_sec():,.0f} events/s, "
            f"{self.attributed_fraction() * 100.0:.1f}% attributed"
        ]
        header = f"  {'event type':<42} | {'count':>8} | {'wall ms':>9} | {'%':>5}"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for label, count, wall in self.top_labels():
            pct = 100.0 * wall / self.total_wall if self.total_wall else 0.0
            lines.append(
                f"  {label:<42.42} | {count:>8} | {wall * 1e3:>9.2f} | {pct:>4.1f}"
            )
        if self.by_process:
            lines.append(f"  {'process (resumptions)':<42} | {'count':>8} | {'wall ms':>9} |")
            procs = sorted(
                self.by_process.items(), key=lambda kv: (-kv[1][1], kv[0])
            )
            for pname, (count, wall) in procs[:TOP]:
                lines.append(
                    f"  {pname:<42.42} | {int(count):>8} | {wall * 1e3:>9.2f} |"
                )
        return "\n".join(lines)
