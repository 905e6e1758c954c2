"""Session persistence: store executions for offline analysis.

The AIMES middleware's value as a virtual laboratory comes from keeping
complete, analyzable records of every execution (the workflow RADICAL-
Analytics serves for RADICAL-Pilot). :func:`save_session` serializes an
:class:`~repro.core.execution_manager.ExecutionReport` — strategy,
decomposition, full pilot/unit state histories — to a JSON file
(``repro run --save``) that any JSON reader loads.
"""

from __future__ import annotations

import json
from typing import Any, Dict

FORMAT_VERSION = 1


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


def save_session(report, path: str) -> None:
    """Write an execution session to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_session(report), fh, indent=1)
