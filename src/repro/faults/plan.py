"""Declarative fault plans: what goes wrong, when, and where.

A :class:`FaultPlan` is a seed plus a tuple of actions. Actions come in
two flavours:

* **scripted** — a fixed timeline entry (`KillPilot` at t=3600,
  `Outage` on stampede-sim from t=1800 for 900 s, `DegradeLink` ...);
* **hazards** — probabilistic processes (`PilotHazard` with an
  exponential failure rate, `SubmitHazard` with a per-submission
  failure probability) whose draws come from a dedicated RNG derived
  *only* from the plan's seed.

Plans are read from plain JSON (``--faults plan.json``) or built from a
named preset; the program never writes one. A plan replays bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Type


@dataclass(frozen=True)
class KillPilot:
    """Kill one pilot at an absolute simulated time.

    The victim is the oldest non-final pilot matching ``resource`` (all
    resources when None); ``index`` pins a specific submission-order
    pilot instead. A kill with no living candidate is logged as a miss.
    """

    at: float
    resource: Optional[str] = None
    index: Optional[int] = None
    kind: str = field(default="kill-pilot", init=False)

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("KillPilot.at must be non-negative")


@dataclass(frozen=True)
class PilotHazard:
    """Poisson pilot-failure process: kills arrive at ``rate_per_s``."""

    rate_per_s: float
    resource: Optional[str] = None
    start: float = 0.0
    stop: float = math.inf
    kind: str = field(default="pilot-hazard", init=False)

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError("PilotHazard.rate_per_s must be positive")
        if self.stop < self.start:
            raise ValueError("PilotHazard window stop precedes start")


@dataclass(frozen=True)
class SubmitFailures:
    """Scripted: fail the next ``count`` SAGA submissions on a resource.

    Transient failures model middleware round-trip errors (the caller
    should retry); permanent ones model rejected submissions.
    """

    count: int
    resource: Optional[str] = None
    permanent: bool = False
    kind: str = field(default="submit-failures", init=False)

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("SubmitFailures.count must be positive")


@dataclass(frozen=True)
class SubmitHazard:
    """Probabilistic: each submission fails with probability ``p_fail``."""

    p_fail: float
    resource: Optional[str] = None
    permanent: bool = False
    start: float = 0.0
    stop: float = math.inf
    kind: str = field(default="submit-hazard", init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.p_fail <= 1.0:
            raise ValueError("SubmitHazard.p_fail must be in (0, 1]")
        if self.stop < self.start:
            raise ValueError("SubmitHazard window stop precedes start")


@dataclass(frozen=True)
class DegradeLink:
    """Throttle the origin<->site WAN link to ``factor`` of its bandwidth.

    ``factor`` 0.0 is a full partition: in-flight transfers stall until
    the window ends. Overlapping windows compose by severity (the lowest
    active factor wins).
    """

    at: float
    site: str
    factor: float
    duration: float
    kind: str = field(default="degrade-link", init=False)

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("DegradeLink.at must be non-negative")
        if not 0.0 <= self.factor < 1.0:
            raise ValueError("DegradeLink.factor must be in [0, 1)")
        if self.duration <= 0:
            raise ValueError("DegradeLink.duration must be positive")

    @property
    def until(self) -> float:
        return self.at + self.duration


@dataclass(frozen=True)
class Outage:
    """Take a whole cluster offline for a window (kills its running jobs)."""

    at: float
    resource: str
    duration: float
    kind: str = field(default="outage", init=False)

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("Outage.at must be non-negative")
        if self.duration <= 0:
            raise ValueError("Outage.duration must be positive")


#: kind tag -> action class, for reading plans.
ACTION_KINDS: Dict[str, Type] = {
    "kill-pilot": KillPilot,
    "pilot-hazard": PilotHazard,
    "submit-failures": SubmitFailures,
    "submit-hazard": SubmitHazard,
    "degrade-link": DegradeLink,
    "outage": Outage,
}


class FaultPlanError(Exception):
    """Raised on malformed fault plans."""


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible chaos scenario: one seed, any number of actions."""

    seed: int = 0
    actions: Tuple[object, ...] = ()

    def __post_init__(self) -> None:
        for a in self.actions:
            if getattr(a, "kind", None) not in ACTION_KINDS:
                raise FaultPlanError(f"unknown fault action {a!r}")

    def of_kind(self, kind: str) -> Tuple[object, ...]:
        return tuple(a for a in self.actions if a.kind == kind)

    # -- reading -------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        try:
            raw_actions = data.get("actions", [])
            actions = []
            for raw in raw_actions:
                raw = dict(raw)
                kind = raw.pop("kind", None)
                klass = ACTION_KINDS.get(kind)
                if klass is None:
                    raise FaultPlanError(f"unknown fault kind {kind!r}")
                if raw.get("stop", 0) is None:
                    raw["stop"] = math.inf
                actions.append(klass(**raw))
            return cls(seed=int(data.get("seed", 0)), actions=tuple(actions))
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


# -- presets (for the CLI's --faults flag and the examples) -------------------

def preset_plan(name: str, seed: int = 0) -> FaultPlan:
    """Named chaos scenarios for quick experiments.

    * ``pilot-storm`` — a pilot dies roughly every 40 simulated minutes;
    * ``flaky-submission`` — 25% of SAGA submissions fail transiently;
    * ``first-pilot-dies`` — the oldest pilot is killed one hour in.
    """
    presets = {
        "pilot-storm": FaultPlan(
            seed=seed, actions=(PilotHazard(rate_per_s=1.0 / 2400.0),)
        ),
        "flaky-submission": FaultPlan(
            seed=seed, actions=(SubmitHazard(p_fail=0.25),)
        ),
        "first-pilot-dies": FaultPlan(
            seed=seed, actions=(KillPilot(at=3600.0, index=0),)
        ),
    }
    try:
        return presets[name]
    except KeyError:
        raise FaultPlanError(
            f"unknown fault preset {name!r}; known: {sorted(presets)}"
        ) from None


PRESET_NAMES = ("pilot-storm", "flaky-submission", "first-pilot-dies")
