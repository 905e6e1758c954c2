"""Span records: begin/end intervals on virtual and wall clocks.

A span covers one piece of middleware work — a scheduler pass, a bundle
query, a pilot's stay in one state, an enactment step. Each span carries
*two* clocks:

* ``t0``/``t1`` — virtual (simulated) seconds, the clock analyses and
  digests are derived from;
* ``w0``/``w1`` — monotonic wall seconds (``time.perf_counter``), the
  clock that tells you where the simulation itself spends host CPU.

Only the virtual fields participate in the canonical rendering: wall
time varies run to run, so it is excluded from the reproducibility
digest by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass
class Span:
    """One begin/end record on the telemetry hub."""

    sid: int                      # unique, ordered by begin
    parent: Optional[int]         # enclosing span's sid (context nesting)
    category: str                 # span taxonomy, e.g. "cluster", "execution"
    name: str                     # e.g. "scheduler-pass", or a state name
    track: str                    # display lane, e.g. "cluster/stampede-sim"
    t0: float                     # virtual begin (simulated seconds)
    w0: float                     # wall begin (perf_counter seconds)
    t1: Optional[float] = None    # virtual end; None while open
    w1: Optional[float] = None    # wall end; None while open
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Canonical dict, without the wall clocks (they break digests)."""
        return {
            "sid": self.sid,
            "parent": self.parent,
            "category": self.category,
            "name": self.name,
            "track": self.track,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": _plain(self.attrs),
        }


def _plain(value: Any) -> Any:
    """Coerce attr values to JSON-stable types (tuples become lists)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
