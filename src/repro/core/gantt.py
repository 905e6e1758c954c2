"""ASCII execution timelines (poor-man's Gantt charts).

The virtual laboratory needs a way to *look* at an execution without a
plotting stack: which pilot queued how long, when units flowed, where
the TTC went. `render_timeline` draws pilots and unit concurrency as
text, directly from the instrumented histories.

Example output::

    t=0s .................................................... t=5012s
    pilot.0001 [stampede-sim   ] ~~~~~~####################________
    pilot.0002 [gordon-sim     ] ~~~~~~~~~~~~~~############________
    units executing                  .:iIIIIIIIIIIIIiii:.

Legend: ``~`` queued, ``#`` active, ``_`` after the pilot ended;
the units row is a density ramp `` .:iI`` by executing-unit count.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..pilot import ComputePilot, ComputeUnit, PilotState
from ..telemetry.causality import _pilot_end_time
from .analytics import concurrency_series

#: density ramp for the unit-concurrency row.
_RAMP = " .:iI"


#: characters per timeline row.
WIDTH = 64


def _row() -> List[str]:
    return [" "] * WIDTH


def _mark(row: List[str], t0: float, t1: float, lo: float, hi: float,
          char: str) -> None:
    """Paint ``char`` over the cells covering [t0, t1] within [lo, hi]."""
    if hi <= lo or t1 < t0:
        return
    width = len(row)
    scale = width / (hi - lo)
    a = max(0, min(width - 1, int((t0 - lo) * scale)))
    b = max(0, min(width - 1, int((t1 - lo) * scale)))
    for i in range(a, b + 1):
        row[i] = char


#: one character per causal component on the critical-path row.
_PATH_CHARS = {
    "tw": "~", "tr": "^", "tx": "#", "ts": "s", "trp": "+", "idle": " ",
}


def render_timeline(
    pilots: Sequence[ComputePilot],
    units: Sequence[ComputeUnit],
    t_start: float,
    t_end: float,
    fault_log=None,
    health_log=None,
    em_steps: Optional[Sequence] = None,
    critical_path: Optional[Sequence] = None,
) -> str:
    """Render one execution as an ASCII timeline, ``WIDTH`` characters
    wide.

    ``em_steps`` is an optional sequence of ``(name, t0, t1)`` rows —
    the enactment-step spans a telemetry-enabled run records — drawn as
    one ``=`` bar per step above the pilot rows. ``critical_path`` is an
    optional sequence of :class:`repro.telemetry.causality.PathSegment`
    rows, drawn as one final row with a per-component character
    (``~`` Tw, ``^`` Tr, ``#`` Tx, ``s`` staging, ``+`` overhead).
    """
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    lines = [
        f"t={t_start:.0f}s " + "." * WIDTH + f" t={t_end:.0f}s"
    ]

    if em_steps:
        label_w = len(pilots[0].uid) + 18 if pilots else 20
        for name, s0, s1 in em_steps:
            row = _row()
            _mark(row, s0, s1, t_start, t_end, "=")
            label = f"{f'step {name}':<{label_w}.{label_w}}"
            lines.append(f"{label} " + "".join(row))

    for pilot in pilots:
        row = _row()
        submit = pilot.history.timestamp(PilotState.LAUNCHING.value)
        active = pilot.activated_at
        final = _pilot_end_time(pilot)
        if submit is not None:
            _mark(row, submit, (active if active is not None else
                                (final if final is not None else t_end)),
                  t_start, t_end, "~")
        if active is not None:
            _mark(row, active, final if final is not None else t_end,
                  t_start, t_end, "#")
        if final is not None and final < t_end:
            _mark(row, final, t_end, t_start, t_end, "_")
        label = f"{pilot.uid} [{pilot.resource:<15.15}]"
        lines.append(f"{label} " + "".join(row))

    # unit-concurrency density row
    series = concurrency_series(units)
    if series:
        row = _row()
        peak = max(level for _, level in series) or 1
        for (t0, level), (t1, _) in zip(series, series[1:]):
            idx = min(len(_RAMP) - 1,
                      1 + int((len(_RAMP) - 2) * level / peak)) if level else 0
            _mark(row, t0, t1, t_start, t_end, _RAMP[idx])
        label = f"{'units executing':<{len(pilots[0].uid) + 18 if pilots else 20}}"
        lines.append(f"{label} " + "".join(row))
        lines.append(f"(peak concurrency: {peak})")

    # fault-injection row: one X per enacted fault within the window
    if fault_log is not None and len(fault_log):
        row = _row()
        shown = 0
        for ev in fault_log:
            if t_start <= ev.time <= t_end:
                _mark(row, ev.time, ev.time, t_start, t_end, "X")
                shown += 1
        if shown:
            label_w = len(pilots[0].uid) + 18 if pilots else 20
            label = f"{'faults injected':<{label_w}}"
            lines.append(f"{label} " + "".join(row))

    # breaker rows: quarantine windows per resource ('Q' open, '?' half-
    # open probing), reconstructed from the health-event trace.
    if health_log is not None and len(health_log):
        windows: dict = {}
        opens: dict = {}
        probes: dict = {}
        for ev in health_log:
            if ev.kind == "breaker-open":
                opens.setdefault(ev.target, ev.time)
            elif ev.kind == "breaker-half-open":
                t0 = opens.pop(ev.target, t_start)
                windows.setdefault(ev.target, []).append((t0, ev.time, "Q"))
                probes[ev.target] = ev.time
            elif ev.kind == "breaker-close":
                t0 = probes.pop(ev.target, None)
                if t0 is not None:
                    windows.setdefault(ev.target, []).append(
                        (t0, ev.time, "?")
                    )
        for target, t0 in opens.items():
            windows.setdefault(target, []).append((t0, t_end, "Q"))
        for target, t0 in probes.items():
            windows.setdefault(target, []).append((t0, t_end, "?"))
        label_w = len(pilots[0].uid) + 18 if pilots else 20
        for target in sorted(windows):
            row = _row()
            for t0, t1, char in windows[target]:
                _mark(row, t0, t1, t_start, t_end, char)
            label = f"{f'breaker {target}':<{label_w}.{label_w}}"
            lines.append(f"{label} " + "".join(row))

    # critical-path row: which component gated the run, instant by
    # instant — the backward-walk chain rendered on the shared axis.
    if critical_path:
        row = _row()
        for seg in critical_path:
            char = _PATH_CHARS.get(seg.component, "?")
            if char != " ":
                _mark(row, seg.t0, seg.t1, t_start, t_end, char)
        label_w = len(pilots[0].uid) + 18 if pilots else 20
        label = f"{'critical path':<{label_w}}"
        lines.append(f"{label} " + "".join(row))
        lines.append("(path: ~ Tw  ^ Tr  # Tx  s staging  + overhead)")
    return "\n".join(lines)


def render_report_timeline(report) -> str:
    """Convenience: timeline straight from an ExecutionReport.

    Executions run under fault injection also show a fault row (one
    ``X`` per enacted fault inside the window); the causal critical
    path is computed and drawn as the final row.
    """
    d = report.decomposition
    tel = getattr(report, "telemetry", None)
    path = None
    if d.t_end > d.t_start:
        path = report.attribution().critical_path
    return render_timeline(
        report.pilots, report.units, d.t_start, d.t_end,
        fault_log=getattr(report, "fault_log", None),
        health_log=getattr(report, "health_log", None),
        em_steps=tel.em_steps if tel is not None else None,
        critical_path=path,
    )
