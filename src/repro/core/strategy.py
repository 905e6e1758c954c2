"""The Execution Strategy abstraction.

An execution strategy is "the set of decisions made to execute an
application": binding of tasks to pilots, the unit scheduler, the number
of pilots, their size, their walltime, and the resources they target.
The abstraction makes these decisions *explicit* — each carries its
chosen value and the rationale — so alternative couplings can be
enumerated, compared, and measured.

The strategy is structured as the paper describes: a tree whose vertices
are decisions and whose edges are dependence relations (e.g. pilot size
depends on the number of pilots, which depends on the binding).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


class Binding(str, enum.Enum):
    """When tasks are bound to pilots."""

    EARLY = "early"   # at submission, before pilots are active
    LATE = "late"     # on activation, to whichever pilot has capacity


@dataclass(frozen=True)
class Decision:
    """One vertex of the strategy's decision tree."""

    name: str
    value: object
    rationale: str = ""
    depends_on: Tuple[str, ...] = ()


@dataclass
class ExecutionStrategy:
    """A fully resolved coupling of an application to resources."""

    binding: Binding
    unit_scheduler: str              # "direct" | "backfill" | "round-robin"
    n_pilots: int
    pilot_cores: int
    pilot_walltime_min: float
    resources: Tuple[str, ...]       # target resource per pilot (len == n_pilots)
    decisions: List[Decision] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_pilots <= 0:
            raise ValueError("a strategy needs at least one pilot")
        if self.pilot_cores <= 0:
            raise ValueError("pilot_cores must be positive")
        if self.pilot_walltime_min <= 0:
            raise ValueError("pilot_walltime_min must be positive")
        if len(self.resources) != self.n_pilots:
            raise ValueError(
                f"strategy names {len(self.resources)} resources for "
                f"{self.n_pilots} pilots"
            )
        if self.binding is Binding.EARLY and self.unit_scheduler != "direct":
            raise ValueError("early binding requires the direct scheduler")
        if self.binding is Binding.LATE and self.unit_scheduler == "direct":
            raise ValueError("late binding cannot use the direct scheduler")

    def describe(self) -> str:
        """Human-readable rendering of the decision tree."""
        lines = [
            f"ExecutionStrategy: {self.binding.value} binding, "
            f"{self.unit_scheduler} scheduler, {self.n_pilots} pilot(s) x "
            f"{self.pilot_cores} cores, walltime {self.pilot_walltime_min:.0f} min"
        ]
        for d in self.decisions:
            dep = f" (after {', '.join(d.depends_on)})" if d.depends_on else ""
            lines.append(f"  - {d.name} = {d.value!r}{dep}: {d.rationale}")
        return "\n".join(lines)
