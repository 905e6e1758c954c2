"""Session persistence: store executions for offline analysis.

The AIMES middleware's value as a virtual laboratory comes from keeping
complete, analyzable records of every execution (the workflow RADICAL-
Analytics serves for RADICAL-Pilot). A :class:`Session` serializes an
:class:`~repro.core.execution_manager.ExecutionReport` — strategy,
decomposition, full pilot/unit state histories — to JSON, and reloads it
into lightweight record objects that the analytics functions accept
(they only need ``history``, ``cores``, and a few attributes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..lifecycle import PilotState, StateHistory

FORMAT_VERSION = 1


@dataclass
class EntityRecord:
    """A reloaded pilot or unit: history plus the analyzed attributes."""

    uid: str
    kind: str                     # "pilot" | "unit"
    cores: int
    attributes: Dict[str, Any]
    history: StateHistory

    # pilot-flavoured accessors (used by analytics/allocation_metrics)
    @property
    def activated_at(self) -> Optional[float]:
        return self.history.timestamp(PilotState.ACTIVE)

    @property
    def resource(self) -> Optional[str]:
        return self.attributes.get("resource")

    @property
    def name(self) -> Optional[str]:
        return self.attributes.get("name")


def _entity_to_dict(uid, kind, cores, attributes, history) -> Dict[str, Any]:
    return {
        "uid": uid,
        "kind": kind,
        "cores": cores,
        "attributes": attributes,
        "history": history.as_list(),
    }


def report_to_session(report) -> Dict[str, Any]:
    """Serialize an ExecutionReport to a JSON-compatible session dict."""
    d = report.decomposition
    return {
        "format": FORMAT_VERSION,
        "application": report.application,
        "n_tasks": report.n_tasks,
        "strategy": {
            "binding": report.strategy.binding.value,
            "unit_scheduler": report.strategy.unit_scheduler,
            "n_pilots": report.strategy.n_pilots,
            "pilot_cores": report.strategy.pilot_cores,
            "pilot_walltime_min": report.strategy.pilot_walltime_min,
            "resources": list(report.strategy.resources),
            "decisions": [
                {
                    "name": dec.name,
                    "value": repr(dec.value),
                    "rationale": dec.rationale,
                }
                for dec in report.strategy.decisions
            ],
        },
        "decomposition": {
            "t_start": d.t_start, "t_end": d.t_end,
            "tw": d.tw, "tw_last": d.tw_last,
            "tx": d.tx, "ts": d.ts, "trp": d.trp,
            "units_done": d.units_done, "units_failed": d.units_failed,
            "restarts": d.restarts,
            "units_canceled": d.units_canceled,
            "t_lost": d.t_lost, "n_faults": d.n_faults,
            "t_quarantined": d.t_quarantined,
            "units_rescheduled": d.units_rescheduled,
        },
        "faults": (
            report.fault_log.to_list()
            if getattr(report, "fault_log", None) is not None else []
        ),
        "health": (
            report.health_log.to_list()
            if getattr(report, "health_log", None) is not None else []
        ),
        "deadline_expired": bool(getattr(report, "deadline_expired", False)),
        "telemetry": (
            report.telemetry.as_dict()
            if getattr(report, "telemetry", None) is not None else None
        ),
        "replans": [
            {
                "time": r.time,
                "quarantined": list(r.quarantined),
                "resources": list(r.resources),
                "submitted": list(r.submitted),
            }
            for r in getattr(report, "replans", [])
        ],
        "recoveries": [
            {
                "time": r.time, "resource": r.resource,
                "attempt": r.attempt, "backoff_s": r.backoff_s,
            }
            for r in getattr(report, "recoveries", [])
        ],
        "pilots": [
            _entity_to_dict(
                p.uid, "pilot", p.cores,
                {"resource": p.resource}, p.history,
            )
            for p in report.pilots
        ],
        "units": [
            _entity_to_dict(
                u.uid, "unit", u.cores,
                {"name": u.description.name, "restarts": u.restarts},
                u.history,
            )
            for u in report.units
        ],
    }


@dataclass
class Session:
    """A reloaded execution session."""

    application: str
    n_tasks: int
    strategy: Dict[str, Any]
    decomposition: Dict[str, float]
    pilots: List[EntityRecord] = field(default_factory=list)
    units: List[EntityRecord] = field(default_factory=list)
    faults: List[Dict[str, Any]] = field(default_factory=list)
    recoveries: List[Dict[str, Any]] = field(default_factory=list)
    health: List[Dict[str, Any]] = field(default_factory=list)
    replans: List[Dict[str, Any]] = field(default_factory=list)
    deadline_expired: bool = False
    #: telemetry summary dict (n_spans/metrics/digest/em_steps), or None
    #: for sessions recorded with the hub disabled / by older versions.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def ttc(self) -> float:
        return self.decomposition["t_end"] - self.decomposition["t_start"]


def session_from_dict(data: Dict[str, Any]) -> Session:
    """Rebuild a Session from :func:`report_to_session` output."""
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported session format {data.get('format')!r}"
        )

    def rebuild(raw) -> EntityRecord:
        history = StateHistory()
        for state, t in raw["history"]:
            history.append(state, t)
        return EntityRecord(
            uid=raw["uid"],
            kind=raw["kind"],
            cores=raw["cores"],
            attributes=raw["attributes"],
            history=history,
        )

    return Session(
        application=data["application"],
        n_tasks=data["n_tasks"],
        strategy=data["strategy"],
        decomposition=data["decomposition"],
        pilots=[rebuild(r) for r in data["pilots"]],
        units=[rebuild(r) for r in data["units"]],
        faults=list(data.get("faults", [])),
        recoveries=list(data.get("recoveries", [])),
        health=list(data.get("health", [])),
        replans=list(data.get("replans", [])),
        deadline_expired=bool(data.get("deadline_expired", False)),
        telemetry=data.get("telemetry"),
    )


def save_session(report, path: str) -> None:
    """Write an execution session to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_session(report), fh, indent=1)


def load_session(path: str) -> Session:
    """Read an execution session from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return session_from_dict(json.load(fh))
