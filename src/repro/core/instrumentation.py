"""TTC decomposition from middleware traces (self-introspection).

The AIMES middleware records every state transition with a timestamp;
analysis then *derives* the time components of TTC from those records —
never from ad-hoc counters. The components, following the paper's
Figure 3:

* **Tw** — setup time: from the first pilot submission until the first
  pilot becomes active (the execution can start draining tasks then).
  ``tw_last`` (until the last activation) is also reported, since early
  binding's makespan is governed by it.
* **Tx** — execution span: from the start of the first completed attempt
  (EXECUTING until STAGING_OUTPUT) to the end of the last one.
* **Ts** — staging time: the union of all intervals during which at
  least one data transfer of this run was in flight (input or output).
* **Trp** — middleware overhead: the portion of TTC not covered by the
  union of Tw, Tx and Ts (scheduling passes, binding, bookkeeping).

The components overlap by design, so ``TTC <= Tw + Tx + Ts + Trp`` need
not hold; instead ``TTC = union(...) + Trp`` exactly.

Tx, Ts and the lost work are read off the unit activities of the
execution's :class:`~repro.telemetry.causality.CausalGraph`, the graph
the causal attribution partitions (see ``docs/INTERNALS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..pilot import ComputePilot, ComputeUnit, PilotState, UnitState
from ..telemetry.causality import CausalGraph
from .metrics import merge_intervals, span, union_duration

#: what a unit activity's interval counts toward, by (kind, end state).
_ROLES = {
    ("executing", UnitState.STAGING_OUTPUT.value): "tx",
    ("executing", UnitState.FAILED.value): "lost",
    ("executing", UnitState.CANCELED.value): "lost",
    ("staging-in", UnitState.PENDING_EXECUTION.value): "ts",
    ("staging-out", UnitState.DONE.value): "ts",
}


@dataclass(frozen=True)
class TTCDecomposition:
    """The measured time components of one application execution."""

    t_start: float
    t_end: float
    tw: float                 # first-pilot setup time
    tw_last: float            # last-pilot setup time
    tx: float                 # execution span
    ts: float                 # staging (union of transfer intervals)
    trp: float                # middleware overhead (uncovered TTC)
    pilot_waits: Tuple[float, ...]    # per-pilot queue waits (NaN if never active)
    units_done: int
    units_failed: int
    restarts: int
    units_canceled: int = 0
    #: executing seconds thrown away because the attempt's pilot died
    #: before the unit could stage out (re-run work, the recovery cost).
    t_lost: float = 0.0
    #: injected faults that fell inside this execution's window.
    n_faults: int = 0
    #: summed per-resource quarantine seconds (breaker-open windows)
    #: overlapping this execution — time capacity was deliberately
    #: withheld by the health layer, the supervision analogue of t_lost.
    t_quarantined: float = 0.0
    #: units the watchdog canceled and requeued for lack of progress.
    units_rescheduled: int = 0

    @property
    def ttc(self) -> float:
        return self.t_end - self.t_start


class IntrospectionError(Exception):
    """Raised when traces are insufficient to decompose the execution."""


def quarantine_seconds(health_log, t_start: float, t_end: float) -> float:
    """Summed per-resource breaker-open time overlapping [t_start, t_end].

    Windows are reconstructed from the health-event trace: a window
    opens at ``breaker-open`` and ends at the matching
    ``breaker-half-open`` (the only transition out of OPEN). A half-open
    with no preceding open in the slice belongs to a window that opened
    before the execution started; a window still open at the end of the
    slice is clipped at ``t_end``.
    """
    opens: dict = {}
    total = 0.0
    for ev in health_log:
        if ev.kind == "breaker-open":
            opens.setdefault(ev.target, ev.time)
        elif ev.kind == "breaker-half-open":
            t0 = opens.pop(ev.target, t_start)
            lo, hi = max(t0, t_start), min(ev.time, t_end)
            if hi > lo:
                total += hi - lo
    for t0 in opens.values():
        lo = max(t0, t_start)
        if t_end > lo:
            total += t_end - lo
    return total


def decompose(
    graph: CausalGraph,
    pilots: Sequence[ComputePilot],
    units: Sequence[ComputeUnit],
    fault_log=None,
    health_log=None,
) -> TTCDecomposition:
    """Derive the TTC decomposition for one application execution.

    ``graph`` gives the TTC window, Tx, Ts and ``t_lost``; the pilot
    histories give Tw; ``units`` give only final states and restart
    counts. ``fault_log`` (an :class:`~repro.telemetry.EventLog`, when
    the run was executed under fault injection) contributes the count of
    injected faults inside the execution window. ``health_log`` (another
    one, when the run was supervised) contributes the quarantine time
    and watchdog reschedule count.
    """
    t_start, t_end = graph.t_start, graph.t_end
    if t_end < t_start:
        raise IntrospectionError("t_end precedes t_start")
    if not pilots:
        raise IntrospectionError("no pilots to decompose")

    submits = [
        p.history.timestamp(PilotState.LAUNCHING.value) for p in pilots
    ]
    actives = [p.activated_at for p in pilots]
    valid_actives = [a for a in actives if a is not None]
    first_submit = min(s for s in submits if s is not None)
    if valid_actives:
        tw = min(valid_actives) - first_submit
        tw_last = max(valid_actives) - first_submit
    else:
        tw = tw_last = t_end - first_submit  # no pilot ever activated

    ivals = {"tx": [], "ts": [], "lost": []}
    for act in graph.activities:
        role = _ROLES.get((act.kind, act.end))
        if role is not None:
            ivals[role].append((act.t0, act.t1))
    exec_ivals, stage_ivals = ivals["tx"], ivals["ts"]
    tx = span(exec_ivals)
    ts = union_duration(stage_ivals)

    # Trp: TTC time not covered by waiting, executing, or staging.
    covered = merge_intervals(
        [(first_submit, first_submit + tw)] + exec_ivals + stage_ivals
    )
    clipped = [
        (max(lo, t_start), min(hi, t_end))
        for lo, hi in covered
        if hi > t_start and lo < t_end
    ]
    trp = (t_end - t_start) - union_duration(clipped)

    pilot_waits = tuple(
        (a - s) if (a is not None and s is not None) else float("nan")
        for s, a in zip(submits, actives)
    )
    return TTCDecomposition(
        t_start=t_start,
        t_end=t_end,
        tw=tw,
        tw_last=tw_last,
        tx=tx,
        ts=ts,
        trp=max(0.0, trp),
        pilot_waits=pilot_waits,
        units_done=sum(1 for u in units if u.state is UnitState.DONE),
        units_failed=sum(1 for u in units if u.state is UnitState.FAILED),
        restarts=sum(u.restarts for u in units),
        units_canceled=sum(
            1 for u in units if u.state is UnitState.CANCELED
        ),
        # summed, not unioned: two units losing work concurrently both
        # have to re-run, so the recovery cost is additive.
        t_lost=sum(t1 - t0 for t0, t1 in ivals["lost"]),
        n_faults=(
            len(fault_log.between(t_start, t_end)) if fault_log is not None else 0
        ),
        t_quarantined=(
            quarantine_seconds(
                health_log.between(t_start, t_end), t_start, t_end
            )
            if health_log is not None else 0.0
        ),
        units_rescheduled=(
            len(health_log.between(t_start, t_end).of_kind("watchdog-reschedule"))
            if health_log is not None else 0
        ),
    )
