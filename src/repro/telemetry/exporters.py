"""Trace exporters: Chrome trace-event JSON and OTLP-style JSON.

* :func:`chrome_trace` renders the hub into the Chrome trace-event
  format (the JSON Perfetto and ``chrome://tracing`` load). Virtual time
  lives in one process group (pid 1, simulated seconds shown as
  microseconds) and wall time in another (pid 2), so the same spans can
  be inspected on either clock side by side.
* :func:`otlp_trace` renders spans as OTLP-style JSON
  (``resourceSpans`` → ``scopeSpans`` → ``spans``) with deterministic
  trace/span ids, the shape OpenTelemetry collectors ingest.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from .digest import sha256_digest
from .hub import TelemetryHub
from .spans import Span, _plain

#: Chrome trace "process" ids for the two clock domains.
PID_VIRTUAL = 1
PID_WALL = 2


def _track_tids(spans: Iterable[Span], instants: Iterable[dict]) -> Dict[str, int]:
    """Assign one tid per track, in first-seen (deterministic) order."""
    tids: Dict[str, int] = {}
    for span in spans:
        if span.track not in tids:
            tids[span.track] = len(tids) + 1
    for inst in instants:
        if inst["track"] not in tids:
            tids[inst["track"]] = len(tids) + 1
    return tids


def chrome_trace(hub: TelemetryHub) -> Dict[str, Any]:
    """Render the hub as a Chrome trace-event JSON object: a virtual-time
    process and a wall-time process, one thread per track in each."""
    events: List[Dict[str, Any]] = []
    tids = _track_tids(hub.spans, hub.instants)

    def meta(pid: int, tid: int, name: str, what: str) -> Dict[str, Any]:
        return {
            "ph": "M", "pid": pid, "tid": tid, "ts": 0,
            "name": what, "args": {"name": name},
        }

    events.append(meta(PID_VIRTUAL, 0, "virtual time (simulated s as us)",
                       "process_name"))
    events.append(meta(PID_WALL, 0, "wall time (host s as us)",
                       "process_name"))
    for track, tid in tids.items():
        events.append(meta(PID_VIRTUAL, tid, track, "thread_name"))
        events.append(meta(PID_WALL, tid, track, "thread_name"))

    wall_base = min((s.w0 for s in hub.spans), default=0.0)
    for span in hub.spans:
        tid = tids[span.track]
        t1 = span.t1 if span.t1 is not None else span.t0
        events.append({
            "ph": "X",
            "pid": PID_VIRTUAL,
            "tid": tid,
            "ts": span.t0 * 1e6,
            "dur": max(0.0, (t1 - span.t0) * 1e6),
            "name": span.name,
            "cat": span.category,
            "args": _plain(span.attrs),
        })
        if span.w1 is not None:
            events.append({
                "ph": "X",
                "pid": PID_WALL,
                "tid": tid,
                "ts": (span.w0 - wall_base) * 1e6,
                "dur": max(0.0, (span.w1 - span.w0) * 1e6),
                "name": span.name,
                "cat": span.category,
                "args": _plain(span.attrs),
            })
    for inst in hub.instants:
        events.append({
            "ph": "i",
            "s": "t",
            "pid": PID_VIRTUAL,
            "tid": tids[inst["track"]],
            "ts": inst["t"] * 1e6,
            "name": inst["name"],
            "cat": inst["category"],
            "args": inst["attrs"],
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"run_id": hub.run_id, "digest": hub.digest()},
    }


def save_chrome_trace(hub: TelemetryHub, path: str) -> None:
    """Write :func:`chrome_trace` output to ``path`` (open in Perfetto)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(hub), fh)


# -- OTLP-style JSON -----------------------------------------------------------

def _otlp_attrs(attrs: Dict[str, Any]) -> List[Dict[str, Any]]:
    out = []
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, bool):
            typed = {"boolValue": value}
        elif isinstance(value, int):
            typed = {"intValue": str(value)}
        elif isinstance(value, float):
            typed = {"doubleValue": value}
        else:
            typed = {"stringValue": str(_plain(value))}
        out.append({"key": key, "value": typed})
    return out


def otlp_trace(hub: TelemetryHub) -> Dict[str, Any]:
    """Render spans as OTLP-style JSON (``resourceSpans`` tree).

    Ids are deterministic: the trace id derives from the run id, span
    ids from the span's ordinal — two same-seed runs export the same
    bytes. Virtual seconds are mapped onto ``*TimeUnixNano`` as
    nanoseconds since epoch 0.
    """
    trace_id = sha256_digest(hub.run_id)[:32]
    spans_out = []
    for span in hub.spans:
        t1 = span.t1 if span.t1 is not None else span.t0
        spans_out.append({
            "traceId": trace_id,
            "spanId": f"{span.sid:016x}",
            "parentSpanId": f"{span.parent:016x}" if span.parent else "",
            "name": span.name,
            "kind": 1,  # SPAN_KIND_INTERNAL
            "startTimeUnixNano": str(int(span.t0 * 1e9)),
            "endTimeUnixNano": str(int(t1 * 1e9)),
            "attributes": _otlp_attrs(
                {"category": span.category, "track": span.track, **span.attrs}
            ),
            "status": {},
        })
    return {
        "resourceSpans": [{
            "resource": {
                "attributes": _otlp_attrs({
                    "service.name": "repro.simulation",
                    "run.id": hub.run_id,
                }),
            },
            "scopeSpans": [{
                "scope": {"name": "repro.telemetry", "version": "1"},
                "spans": spans_out,
            }],
        }],
    }


def save_otlp_trace(hub: TelemetryHub, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(otlp_trace(hub), fh)
