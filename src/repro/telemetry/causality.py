"""Causal TTC attribution: where did every second of this run go?

The paper's central claim is explanatory: late binding over three pilots
wins *because* queue wait dominates TTC and multi-resource execution
takes the minimum of several queue-wait draws. This module turns one
execution's recorded state histories into that explanation:

* :func:`build_graph` reconstructs a **causal activity graph** from the
  pilots' and units' instrumented state histories (enactment start →
  SAGA submission → pilot queue wait → bootstrap → unit scheduling →
  execution → data staging), with explicit candidate-predecessor edges;
* :func:`critical_path` walks that graph **backward from the end of the
  run**, at each step picking the activity whose completion gated the
  current one — the chain of segments that covers ``[t_start, t_end]``
  with no gaps, so the path's total equals TTC by construction;
* :func:`sweep_attribution` charges **every virtual second of TTC to
  exactly one component** via a priority sweep (work beats staging
  beats waiting beats overhead), so the per-component attribution sums
  to TTC by construction;
* :class:`TTCAttribution` carries both, renders canonically, and
  digests byte-stably: two same-seed runs — serial or parallel —
  produce the identical digest.

Components
----------
``tw``
    pilot queue wait (submission until the placeholder job starts);
``tr``
    pilot bootstrap (placeholder job running until the agent is ready);
``tx``
    unit execution on pilot cores;
``ts``
    data staging (input and output transfers);
``trp``
    middleware overhead — scheduling, binding waits, recovery backoffs,
    enactment bookkeeping;
``idle``
    time covered by no recorded activity (plus the float residual, so
    the component sum is *exactly* TTC).

Unlike the overlapping components of
:class:`~repro.core.instrumentation.TTCDecomposition` (where
``TTC = union(...) + Trp``), this attribution is a *partition*: each
instant belongs to one component, decided by priority when activities
overlap. Both views read one graph, built once per execution: its unit
activities record the state that ended them (``end``), which tells
:func:`~repro.core.instrumentation.decompose` completed from lost work.

Which unit state feeds which component is read off the unit table of
:mod:`repro.lifecycle`, the one module outside :mod:`repro.telemetry`
this package imports. The pilot/unit entities themselves are
duck-typed (``history``, ``saga_job``, ``resource``): any objects with
the same shape work.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..lifecycle import PILOT_FINAL, UNIT_TABLE, PilotState, UnitState
from .digest import canonical_json, sha256_digest

log = logging.getLogger(__name__)

#: canonical component order (rendering, storage, digests).
COMPONENTS: Tuple[str, ...] = ("tw", "tr", "tx", "ts", "trp", "idle")

#: sweep priority: when activities overlap, the strongest claims the
#: instant. Work first, then staging, then bootstrap progress, then
#: queue waiting, then middleware bookkeeping.
_PRIORITY: Dict[str, int] = {
    "tx": 0, "ts": 1, "tr": 2, "tw": 3, "trp": 4, "idle": 5,
}

#: predecessor preference on end-time ties in the backward walk: a
#: productive activity ending at the instant explains the wakeup better
#: than the waiting interval it terminated.
_GATE_RANK: Dict[str, int] = {
    "executing": 0,
    "staging-out": 1,
    "staging-in": 1,
    "bootstrap": 2,
    "queue-wait": 3,
    "scheduling": 5,
    "recovery-wait": 6,
    "pending": 7,
    "unscheduled": 7,
    "plan": 8,
}

_EPS = 1e-9

#: state intervals that are pure waiting — the backward walk prefers the
#: productive activity that *ended* the wait over the wait itself.
_WAIT_KINDS = frozenset({"pending", "unscheduled", "recovery-wait", "plan"})

#: intervals during which the entity is blocked for the whole stretch:
#: the backward walk charges only the post-gate tail to them and hands
#: the path to whatever completion released the block.
_BLOCKED_KINDS = _WAIT_KINDS | {"scheduling"}


@dataclass
class Activity:
    """One reconstructed interval of middleware work (a graph node)."""

    key: int
    kind: str             # "queue-wait", "executing", "staging-in", ...
    component: str        # one of COMPONENTS
    t0: float
    t1: float
    label: str            # e.g. "pilot.0001 queue-wait @stampede-sim"
    preds: List[int] = field(default_factory=list, repr=False)
    end: Optional[str] = None  # unit state that ended it (None: still open)


@dataclass(frozen=True)
class PathSegment:
    """One stretch of the critical path; segments tile [t_start, t_end]."""

    t0: float
    t1: float
    component: str
    label: str

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "t0": self.t0, "t1": self.t1,
            "component": self.component, "label": self.label,
        }


@dataclass
class CausalGraph:
    """Activity nodes plus candidate-predecessor edges for one run."""

    t_start: float
    t_end: float
    activities: List[Activity]
    #: key of the sink activity (the one whose completion ended the run).
    sink: Optional[int]

    def by_key(self, key: int) -> Activity:
        return self.activities[key]


@dataclass(frozen=True)
class TTCAttribution:
    """Every virtual second of one run's TTC, attributed to a component.

    ``components`` is an exact partition of TTC: the values sum to
    ``ttc`` by construction (the float residual of the sweep is folded
    into ``idle``). ``critical_path`` tiles ``[t_start, t_end]``
    contiguously, so its total equals TTC as well.
    """

    t_start: float
    t_end: float
    components: Tuple[Tuple[str, float], ...]   # COMPONENTS order
    critical_path: Tuple[PathSegment, ...]

    @property
    def ttc(self) -> float:
        return self.t_end - self.t_start

    @property
    def shares(self) -> Dict[str, float]:
        """Component fractions of TTC (all zero for a zero-length run)."""
        ttc = self.ttc
        if ttc <= 0:
            return {name: 0.0 for name, _ in self.components}
        return {name: value / ttc for name, value in self.components}

    def path_by_component(self) -> Dict[str, float]:
        """Seconds of the critical path spent in each component."""
        out = {name: 0.0 for name in COMPONENTS}
        for seg in self.critical_path:
            out[seg.component] += seg.duration
        return out

    def as_dict(self) -> Dict[str, Any]:
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "components": [[name, value] for name, value in self.components],
            "critical_path": [seg.as_dict() for seg in self.critical_path],
        }

    def canonical_json(self) -> str:
        return canonical_json(self.as_dict())

    def digest(self) -> str:
        """SHA-256 of the canonical rendering — seed-stable by design."""
        return sha256_digest(self.canonical_json())

    def summary(self) -> str:
        parts = ", ".join(
            f"{name} {value:.0f}s ({share:.0%})"
            for (name, value), share in zip(
                self.components, self.shares.values()
            )
            if value > 0
        )
        return f"TTC {self.ttc:.0f}s = {parts}"


# -- graph construction --------------------------------------------------------


def _pilot_end_time(pilot: Any) -> Optional[float]:
    """When ``pilot`` first reached DONE, CANCELED or FAILED, or None."""
    ends = [
        t for s in PILOT_FINAL if (t := pilot.history.timestamp(s)) is not None
    ]
    return min(ends, default=None)


def _unit_activities(
    unit: Any, t_end: float
) -> Iterator[Tuple[str, str, float, float, Optional[str]]]:
    """``(kind, component, t0, t1, end)`` per state interval of a unit.

    ``end`` is the state that closed the interval, or None (and ``t1``
    is ``t_end``) for the last, still open one. A restarted unit has one
    ``executing`` activity per attempt. FAILED is an interval only when
    a restart follows it.
    """
    entries = unit.history.as_list()
    for i, (state, t0) in enumerate(entries):
        row = UNIT_TABLE[state]
        if row.activity is None:
            continue
        if state == UnitState.FAILED and not any(
            s == UnitState.UNSCHEDULED for s, _ in entries[i + 1:]
        ):
            continue
        end, t1 = entries[i + 1] if i + 1 < len(entries) else (None, t_end)
        yield row.activity, row.component, t0, t1, end


def build_graph(
    pilots: Sequence[Any],
    units: Sequence[Any],
    t_start: float,
    t_end: float,
) -> CausalGraph:
    """Reconstruct the causal activity graph of one execution.

    ``pilots`` and ``units`` are duck-typed instrumented entities (any
    object with the ``history``/``saga_job``/``pilot`` shape of
    :mod:`repro.pilot`). The graph is built from their histories alone,
    so it is the same whether telemetry is on or off.
    """
    activities: List[Activity] = []

    def add(kind: str, component: str, t0: float, t1: float,
            label: str, end: Optional[str] = None) -> Activity:
        act = Activity(
            key=len(activities), kind=kind, component=component,
            t0=t0, t1=min(t1, t_end), label=label, end=end,
        )
        activities.append(act)
        return act

    # A synthetic "plan" anchor at t_start keeps the backward walk
    # grounded.
    anchor = add("plan", "trp", t_start, t_start, "enactment start")

    # -- pilots: queue wait and bootstrap -------------------------------------
    pilot_boot: Dict[str, Activity] = {}   # pilot uid -> gate activity
    for pilot in pilots:
        submit = pilot.history.timestamp(PilotState.LAUNCHING)
        if submit is None:
            continue
        active = pilot.history.timestamp(PilotState.ACTIVE)
        job = getattr(pilot, "saga_job", None)
        job_start = getattr(job, "started_at", None)
        uid = getattr(pilot, "uid", "pilot")
        resource = getattr(pilot, "resource", "?")
        # queue wait ends when the placeholder job starts; if that is
        # unobserved, at activation; if the pilot never ran, at its
        # final state (or the end of the run).
        wait_end = job_start
        if wait_end is None:
            wait_end = active
        if wait_end is None:
            wait_end = _pilot_end_time(pilot)
        if wait_end is None:
            wait_end = t_end
        qw = add("queue-wait", "tw", submit, wait_end,
                 f"{uid} queue-wait @{resource}")
        qw.preds.append(anchor.key)
        gate = qw
        if active is not None and job_start is not None and active > job_start:
            boot = add("bootstrap", "tr", job_start, active,
                       f"{uid} bootstrap @{resource}")
            boot.preds.append(qw.key)
            gate = boot
        pilot_boot[uid] = gate

    # -- units: one activity per contiguous state interval --------------------
    # executing activities per pilot uid, for core-handoff edges.
    execs_by_pilot: Dict[str, List[Activity]] = {}
    unit_execs: List[Tuple[Activity, Optional[str]]] = []

    for unit in units:
        pilot = getattr(unit, "pilot", None)
        pilot_uid = getattr(pilot, "uid", None)
        uid = getattr(unit, "uid", "unit")
        prev: Optional[Activity] = None
        first: Optional[Activity] = None
        for kind, component, t0, t1, end in _unit_activities(unit, t_end):
            act = add(kind, component, t0, t1, f"{uid} {kind}", end)
            if prev is not None:
                act.preds.append(prev.key)
            prev = act
            if first is None:
                first = act
            if kind == "executing":
                if pilot_uid is not None:
                    execs_by_pilot.setdefault(pilot_uid, []).append(act)
                unit_execs.append((act, pilot_uid))
            elif kind in ("unscheduled", "scheduling") and pilot_uid in pilot_boot:
                # late binding: the unit left UNSCHEDULED because a
                # pilot came up — the bootstrap is a candidate gate.
                act.preds.append(pilot_boot[pilot_uid].key)
        if first is not None:
            first.preds.append(anchor.key)

    # core-handoff and activation edges into each executing activity:
    # the walk's argmax-t1 selection finds which one actually gated it.
    for act, pilot_uid in unit_execs:
        if pilot_uid is None:
            continue
        boot = pilot_boot.get(pilot_uid)
        if boot is not None:
            act.preds.append(boot.key)
    # One core-handoff edge per exec: the same-pilot exec that ended
    # latest by its start, the lowest key on a tie. The gate pick is a
    # strict max over (t1, rank, -key) and every exec shares one rank,
    # so no other same-pilot exec could win it.
    for p_execs in execs_by_pilot.values():
        by_t1 = sorted(p_execs, key=lambda a: (a.t1, -a.key))
        t1s = [a.t1 for a in by_t1]
        for act in p_execs:
            cut = bisect_right(t1s, act.t0 + _EPS)
            if cut and by_t1[cut - 1] is act:
                cut -= 1
            if cut:
                act.preds.append(by_t1[cut - 1].key)

    # -- sink: the activity whose completion ended the run --------------------
    sink: Optional[int] = None
    best: Tuple[float, int] = (float("-inf"), 9)
    for act in activities:
        if act.kind in _WAIT_KINDS:
            continue
        rank = _GATE_RANK.get(act.kind, 9)
        cand = (act.t1, -rank)
        if sink is None or cand > (best[0], -best[1]):
            sink = act.key
            best = (act.t1, rank)
    return CausalGraph(
        t_start=t_start, t_end=t_end, activities=activities, sink=sink,
    )


# -- the backward critical-path walk -------------------------------------------


def _pick_gate(
    graph: CausalGraph, act: Activity, cursor: float
) -> Optional[Activity]:
    """The predecessor whose completion gated ``act`` at ``cursor``.

    Among candidate predecessors ending at or before the cursor, the
    latest end wins (that completion is what the current activity was
    waiting on); end-time ties break toward productive work over
    waiting intervals, then toward the stable construction order.
    """
    best: Optional[Activity] = None
    best_key: Tuple[float, int, int] = (float("-inf"), 9, -1)
    for pk in act.preds:
        pred = graph.by_key(pk)
        if pred.t1 > cursor + _EPS:
            continue
        key = (pred.t1, -_GATE_RANK.get(pred.kind, 9), -pred.key)
        if best is None or key > best_key:
            best = pred
            best_key = key
    return best


def critical_path(graph: CausalGraph) -> List[PathSegment]:
    """Walk backward from the end of the run to its start.

    Produces contiguous segments tiling ``[t_start, t_end]``: each step
    emits the current activity's stretch ``[t0, cursor]``, then asks
    which predecessor's completion gated that start. Gaps no activity
    explains become ``idle`` segments, so the tiling — and therefore
    the path total — is complete by construction.
    """
    t_start, t_end = graph.t_start, graph.t_end
    segments: List[PathSegment] = []
    if t_end <= t_start:
        return segments
    cursor = t_end
    cur = graph.by_key(graph.sink) if graph.sink is not None else None
    guard = 0
    limit = 10 * len(graph.activities) + 100
    while cursor > t_start + _EPS:
        guard += 1
        if guard > limit:  # pragma: no cover - defensive against cycles
            log.warning("critical-path walk aborted after %d steps", guard)
            break
        if cur is None:
            segments.append(
                PathSegment(t_start, cursor, "idle", "unattributed")
            )
            cursor = t_start
            break
        lo = max(min(cur.t0, cursor), t_start)
        gate = _pick_gate(graph, cur, cursor)
        if (
            cur.kind in _BLOCKED_KINDS
            and gate is not None
            and gate.t1 > lo + _EPS
        ):
            # the activity was blocked for its whole stretch; the gate
            # that completed *inside* it is what it was really waiting
            # on — charge only the post-gate tail to the wait and hand
            # the walk to the gate's chain (queue wait, bootstrap, a
            # predecessor execution) instead of the wait label.
            lo = min(gate.t1, cursor)
        if cursor > lo + _EPS or not segments:
            segments.append(
                PathSegment(lo, cursor, cur.component, cur.label)
            )
        cursor = lo
        if cursor <= t_start + _EPS:
            break
        if gate is None:
            # nothing recorded explains this start; bridge to t_start.
            segments.append(
                PathSegment(t_start, cursor, "idle", "unattributed")
            )
            cursor = t_start
            break
        if gate.t1 < cursor - _EPS:
            # the gate completed earlier than the start it explains —
            # the in-between stretch belongs to the waiting interval
            # (scheduler latency, launch-rate slots).
            bridge = max(gate.t1, t_start)
            segments.append(
                PathSegment(bridge, cursor, "trp", f"{cur.label} dispatch")
            )
            cursor = bridge
        cur = gate
    segments.reverse()
    return _merge_segments(segments)


def _merge_segments(segments: List[PathSegment]) -> List[PathSegment]:
    """Fuse adjacent segments of one activity (zero-length ones vanish)."""
    out: List[PathSegment] = []
    for seg in segments:
        if out and out[-1].label == seg.label and (
            out[-1].component == seg.component
        ):
            out[-1] = PathSegment(
                out[-1].t0, seg.t1, seg.component, seg.label
            )
        elif seg.t1 - seg.t0 > 0 or not out:
            out.append(seg)
    return out


# -- the priority sweep --------------------------------------------------------


def sweep_attribution(graph: CausalGraph) -> Dict[str, float]:
    """Charge every instant of ``[t_start, t_end]`` to one component.

    A boundary sweep over all activity intervals: between consecutive
    boundaries the highest-priority component with an active interval
    claims the segment; uncovered segments are ``idle``. The float
    residual (boundary arithmetic vs ``t_end - t_start``) is folded
    into ``idle`` so the values sum to TTC *exactly*.
    """
    t_start, t_end = graph.t_start, graph.t_end
    totals = {name: 0.0 for name in COMPONENTS}
    ttc = t_end - t_start
    if ttc <= 0:
        return totals

    events: List[Tuple[float, int, int]] = []  # (time, +1/-1, priority)
    for act in graph.activities:
        lo, hi = max(act.t0, t_start), min(act.t1, t_end)
        if hi <= lo:
            continue
        pri = _PRIORITY[act.component]
        events.append((lo, +1, pri))
        events.append((hi, -1, pri))
    if not events:
        totals["idle"] = ttc
        return totals

    events.sort()
    bounds = sorted({t_start, t_end, *(t for t, _, _ in events)})
    bounds = [t for t in bounds if t_start <= t <= t_end]
    active = [0] * len(_PRIORITY)
    ei = 0
    for b0, b1 in zip(bounds, bounds[1:]):
        while ei < len(events) and events[ei][0] <= b0:
            _, delta, pri = events[ei]
            active[pri] += delta
            ei += 1
        comp = "idle"
        for name in ("tx", "ts", "tr", "tw", "trp"):
            if active[_PRIORITY[name]] > 0:
                comp = name
                break
        totals[comp] += b1 - b0

    # exact-sum correction: fold the sweep's float residual into idle.
    residual = ttc - sum(totals.values())
    totals["idle"] += residual
    if abs(residual) > 1e-6 * max(1.0, ttc):  # pragma: no cover - defensive
        log.warning("attribution residual %.3g s folded into idle", residual)
    return totals


# -- the public one-call API ---------------------------------------------------


def attribute_report(report: Any) -> TTCAttribution:
    """Attribution from the graph an ExecutionReport carries.

    The execution manager builds ``report.graph`` once per execution;
    this runs only the sweep and the critical-path walk on it.
    """
    return _attribute_graph(report.graph)


def _attribute_graph(graph: CausalGraph) -> TTCAttribution:
    totals = sweep_attribution(graph)
    return TTCAttribution(
        t_start=graph.t_start,
        t_end=graph.t_end,
        components=tuple((name, totals[name]) for name in COMPONENTS),
        critical_path=tuple(critical_path(graph)),
    )
