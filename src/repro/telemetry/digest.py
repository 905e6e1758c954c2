"""The canonical-JSON/SHA-256 reproducibility contract.

Three record streams promise byte-identical replays under a fixed seed:
the fault log, the health-event log (both
:class:`~repro.telemetry.eventlog.EventLog`), and the telemetry hub
itself. They all render through this one helper pair, so "canonical" means the
same thing everywhere: stable key order, compact separators, exact float
repr — equal digests iff the streams are identical.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical_json(obj: Any) -> str:
    """Render ``obj`` as canonical JSON (stable keys, exact floats)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_digest(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical JSON.

    A string argument is hashed as-is (it is assumed to already be a
    canonical rendering); anything else is canonicalized first.
    """
    text = obj if isinstance(obj, str) else canonical_json(obj)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
