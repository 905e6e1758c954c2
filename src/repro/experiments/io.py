"""The campaign JSON codec: export and ``migrate`` input for campaigns.

Campaigns record into the sqlite store
(:mod:`repro.experiments.store`), the one result sink and read model.
This module is the codec the store and the JSON files share:
per-run/per-error dict conversion (used verbatim for the store's row
payloads) plus whole-campaign JSON files — what ``repro campaign -o``
exports, and what ``repro migrate`` (or
:func:`~repro.experiments.store.open_campaign`, in memory) reads into a
store, as for the committed ``campaign_2016.json``. Because the store
serializes rows through the same :func:`run_to_dict`/:func:`run_from_dict`
pair, a campaign round-trips field-for-field identically through either
form.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict

from .campaign import CampaignResult, CellError, RunResult

FORMAT_VERSION = 1


def run_to_dict(run: RunResult) -> Dict[str, Any]:
    """One repetition as plain JSON-compatible data (the shared codec)."""
    return dataclasses.asdict(run)


def run_from_dict(raw: Dict[str, Any]) -> RunResult:
    """Rebuild one repetition from :func:`run_to_dict` output.

    Tolerates artifacts written by older code: files from before the
    parallel runner lack ``events``/``digest``, files from before the
    attribution engine lack ``attribution``/``attribution_digest``.
    """
    raw = dict(raw)
    raw["resources"] = tuple(raw["resources"])
    raw["pilot_waits"] = tuple(raw["pilot_waits"])
    raw.setdefault("events", 0)
    raw.setdefault("digest", "")
    raw.setdefault("attribution", ())
    raw.setdefault("attribution_digest", "")
    raw["attribution"] = tuple(
        (str(name), float(value)) for name, value in raw["attribution"]
    )
    return RunResult(**raw)


def error_to_dict(err: CellError) -> Dict[str, Any]:
    """One failed repetition as plain JSON-compatible data."""
    return dataclasses.asdict(err)


def error_from_dict(raw: Dict[str, Any]) -> CellError:
    """Rebuild one failed repetition from :func:`error_to_dict` output."""
    return CellError(**raw)


def campaign_to_dict(result: CampaignResult) -> Dict[str, Any]:
    """Serialize a campaign to plain JSON-compatible data."""
    out: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "runs": [run_to_dict(run) for run in result.runs],
    }
    if result.errors:
        out["errors"] = [error_to_dict(err) for err in result.errors]
    if result.meta:
        out["meta"] = dict(result.meta)
    return out


def campaign_from_dict(data: Dict[str, Any]) -> CampaignResult:
    """Rebuild a campaign from :func:`campaign_to_dict` output."""
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported campaign format {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    result = CampaignResult()
    for raw in data["runs"]:
        result.add(run_from_dict(raw))
    for raw in data.get("errors", ()):
        result.errors.append(error_from_dict(raw))
    result.meta = dict(data.get("meta", ()))
    return result


def save_campaign(result: CampaignResult, path: str) -> None:
    """Write a campaign to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(campaign_to_dict(result), fh, indent=1)


def load_campaign(path: str) -> CampaignResult:
    """Read a campaign from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return campaign_from_dict(json.load(fh))
