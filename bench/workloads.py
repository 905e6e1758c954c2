"""The benchmark's workloads: which cells each one runs, and through what.

A cell is one repetition ``(exp_id, n_tasks, rep)`` of the campaign
grid. Every repetition of a workload runs in a fresh interpreter and
never repeats a cell inside that process, so no in-process cache is warm
unless a real campaign would have warmed it too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

Cell = Tuple[int, int, int]

#: a timing percentile needs this many pooled samples, so that at least
#: ten of them lie beyond the 90th percentile.
P90_MIN_SAMPLES = 100

#: repetition ``k`` of a run at ``--seed s`` runs at campaign seed
#: ``s + k * REP_SEED_STRIDE``. Repetition 0 is the campaign at ``s``
#: itself. The others add cells that neither it nor a run at a nearby
#: seed holds. The cost of a seed's cells differs by up to 16% between
#: seeds, and repeating one seed's cells three times leaves that whole
#: difference in the run (10-seed spreads of 9-17%). Distinct cells
#: average it out. ``run_campaign`` always runs rep indices from 0, so a
#: new campaign seed is the one way to get new cells.
REP_SEED_STRIDE = 100_000


def rep_seed(seed: int, k: int) -> int:
    """The campaign seed of repetition ``k`` of a run at ``seed``."""
    return seed + k * REP_SEED_STRIDE


@dataclass(frozen=True)
class Workload:
    """One set of cells and the public entry point that runs them."""

    name: str
    experiments: Tuple[int, ...]
    task_counts: Tuple[int, ...]
    reps: int
    #: ``loop`` calls ``run_single`` per cell, catching and counting each
    #: exception; ``campaign`` calls ``run_campaign`` with a store and a
    #: ledger (serial when ``jobs == 1``).
    entry: str
    jobs: int = 1

    def cells(self) -> List[Cell]:
        """The cells of one repetition, in grid order."""
        return [
            (e, n, r)
            for e in self.experiments
            for n in self.task_counts
            for r in range(self.reps)
        ]

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict) -> "Workload":
        d = dict(d)
        d["experiments"] = tuple(d["experiments"])
        d["task_counts"] = tuple(d["task_counts"])
        return cls(**d)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's winning strategy at mid scale: about half warm-up,
        # half execute, and the heap queue never promotes, so it is the
        # control for queue and warm-up changes.
        Workload("oracle", (3,), (256,), 40, "loop"),
        # Build and warm-up are most of each cell; drives the serial
        # campaign executor with store and ledger writes.
        Workload("small-grid", (1, 2, 3, 4), (8, 16, 32, 64), 4, "campaign"),
        # Execute is most of each cell: 2048 concurrent transfers through
        # one link, and the auto queue promoted to the calendar queue.
        Workload("early-2048", (1, 2), (2048,), 2, "loop"),
        # The -j supervisor with 2 workers, chunking, sqlite writes beside
        # the workers, and the store read-back.
        Workload("grid-j2", (1, 2, 3, 4), (32, 256, 1024), 4, "campaign", jobs=2),
    )
}
