"""Crash-safe campaign execution: attempts, resume planning, and shutdown.

The campaign runner simulates resilient *distributed* execution (faults,
breakers, deadline re-planning), but before this module it was itself
fragile: a SIGKILL, a hung worker, or a Ctrl-C discarded every completed
repetition and the only recovery was a full re-run. This module makes
the execution process itself supervisable — the same posture the AIMES
paper takes toward the applications it runs — following the
checkpoint/restart and pilot-lifecycle supervision patterns of
RADICAL-Pilot and the P* pilot model.

Four cooperating pieces:

* **Attempts** — every dispatch of a ``(exp_id, n_tasks, rep)`` cell is
  an *attempt*, recorded in the store's campaign log and nowhere else:
  an ``attempt_started`` record (attempt number, worker pid) opens it as
  the cell is dispatched, and one closing record ends it — the cell's
  ``cell`` record (committed or failed, written in the transaction that
  stores its run or error), an ``attempt_timeout``, or an
  ``attempt_lost`` that names how it was lost (``crashed``,
  ``interrupted``, ``reclaimed``). So a campaign's execution history is
  durable and a half-finished store is forensically legible: an attempt
  with no closing record died in flight.
* **Resume** — :func:`prepare_resume` verifies the campaign config
  fingerprint (grid, reps, seed, resource pool hashed canonically)
  against the store, refuses incompatible resumes with a per-key diff,
  closes the attempts a dead run left open (``reclaimed``), skips
  committed cells, and returns the remaining grid. Because every cell
  seeds itself from its coordinates alone (``SeedSequence`` spawn
  keys), re-running only the remainder is provably identical to an
  uninterrupted run — the chaos-resume suite asserts byte-identical
  ``campaign_fingerprint_from_store`` digests.
* **Supervision** — the campaign executor
  (:mod:`repro.experiments.runner`) records every attempt through the
  campaign's :class:`~repro.experiments.ledger.RunLedger`. While cells
  run on worker processes, one cell each, it stamps one parent
  heartbeat in the store and adds a per-cell wall-time budget, killing
  a hung cell's worker and retrying the cell under a seeded-backoff
  budget before quarantining it as a poison cell.
* **Graceful shutdown** — :class:`ShutdownControl` turns SIGINT/SIGTERM
  into a two-stage drain: the first signal stops dispatching and lets
  in-flight cells finish (and commit); the second hard-cancels. Either
  way the store is marked cleanly interrupted and the CLI exits with
  :data:`EXIT_RESUMABLE`.

Exit-code contract (the CLI's ``campaign`` subcommand):

====  =========================================================
 0    campaign completed, no cell errors
 1    campaign completed, some cells quarantined as errors
 2    usage/config errors, including an incompatible ``--resume``
75    cleanly interrupted (SIGINT/SIGTERM drain); resumable
====  =========================================================
"""

from __future__ import annotations

import logging
import os
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..telemetry.digest import sha256_digest

log = logging.getLogger(__name__)

#: One repetition's coordinates in the campaign grid.
Cell = Tuple[int, int, int]

#: Exit code of a cleanly-interrupted (drained) campaign: EX_TEMPFAIL —
#: "try again", which is exactly what ``--resume`` does.
EXIT_RESUMABLE = 75


def config_digest(meta: Dict[str, Any]) -> str:
    """SHA-256 over the canonical campaign config (grid/reps/seed/pool).

    Everything :func:`~repro.experiments.campaign.campaign_meta` records
    participates, so any future config dimension (faults, supervision)
    is covered automatically the moment it lands in the meta dict.
    """
    return sha256_digest(dict(meta))


def meta_diff(
    stored: Dict[str, Any], requested: Dict[str, Any]
) -> List[Tuple[str, Any, Any]]:
    """Per-key differences between a stored and a requested config."""
    diff: List[Tuple[str, Any, Any]] = []
    for key in sorted(set(stored) | set(requested)):
        a, b = stored.get(key), requested.get(key)
        if a != b:
            diff.append((key, a, b))
    return diff


class IncompatibleResumeError(ValueError):
    """``--resume`` against a store written by a different campaign config."""

    def __init__(
        self, diff: List[Tuple[str, Any, Any]],
        stored_digest: str, requested_digest: str,
    ) -> None:
        self.diff = diff
        self.stored_digest = stored_digest
        self.requested_digest = requested_digest
        lines = [
            "store was written by a different campaign config "
            f"(stored {stored_digest[:12]}, requested "
            f"{requested_digest[:12]}); refusing to resume:"
        ]
        for key, a, b in diff:
            lines.append(f"  {key}: stored {a!r} != requested {b!r}")
        super().__init__("\n".join(lines))


class StoreInUseError(ValueError):
    """A fresh campaign pointed at a store that already holds one."""


def check_fresh(store) -> None:
    """Refuse to start a fresh campaign in a store that was used.

    Any committed run, any quarantined error and any recorded campaign
    config count: a fresh grid merged into them leaves rows that no
    fingerprint can vouch for. ``--resume`` is the way to continue one.
    """
    runs, errors = store.run_count(), store.error_count()
    if runs or errors or store.campaign_meta():
        raise StoreInUseError(
            f"{store.path} already holds a campaign ({runs} committed "
            f"run(s), {errors} error(s)); pass --resume to continue it, "
            "or point --store at a fresh path"
        )


class CampaignInterrupted(RuntimeError):
    """A campaign stopped by SIGINT/SIGTERM after a clean drain.

    Carries the partial :class:`~repro.experiments.campaign.CampaignResult`
    of the cells that completed *in this session* (every one of them is
    already committed to the store). The CLI maps this to
    :data:`EXIT_RESUMABLE`.
    """

    def __init__(self, message: str, result=None) -> None:
        super().__init__(message)
        self.result = result


#: base of the seeded exponential backoff between retries.
BACKOFF_BASE_S = 0.5


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs for execution supervision and retry budgets.

    ``cell_timeout_s`` is the per-cell wall-time budget, measured from
    the cell's dispatch to its worker process. ``None`` disables
    timeout supervision (the default: simulated cells are fast, but a
    pathological workload or a wedged interpreter is exactly what this
    guard exists for).
    """

    cell_timeout_s: Optional[float] = None
    #: dispatches of one cell (timeouts and crashes both count) before
    #: it is quarantined as a poison-cell
    #: :class:`~repro.experiments.campaign.CellError`.
    max_attempts: int = 2
    #: on resume, re-attempt cells previously quarantined as errors.
    retry_errors: bool = False

    def backoff_s(self, cell: Cell, attempt: int, campaign_seed: int = 0) -> float:
        """Deterministic (seeded) exponential backoff with jitter."""
        ss = np.random.SeedSequence(
            entropy=campaign_seed, spawn_key=(*cell, 0x5EED, attempt)
        )
        jitter = float(np.random.default_rng(ss).uniform(0.5, 1.5))
        return BACKOFF_BASE_S * (2 ** max(0, attempt - 1)) * jitter


class ShutdownControl:
    """Two-stage SIGINT/SIGTERM handling for campaign runners.

    First signal: ``draining`` — stop dispatching, let in-flight cells
    finish and commit. Second signal: ``hard`` — cancel everything still
    running. With ``raise_on_hard`` (a cell running in-process) the
    second signal raises :class:`KeyboardInterrupt` so the cell is
    actually preempted; a parent of worker processes polls the flags
    instead and kills its workers.

    Worker processes fork a copy of the installed handler; the copy
    recognizes the pid mismatch and only flips its (invisible) flags,
    which makes workers immune to the terminal's process-group SIGINT —
    the drain semantics fall out for free. Installation is a no-op off
    the main thread.
    """

    def __init__(self, raise_on_hard: bool = False) -> None:
        self.draining = False
        self.hard = False
        self.signals = 0
        self._raise_on_hard = raise_on_hard
        self._pid = os.getpid()
        self._previous: Dict[int, Any] = {}

    def install(self) -> "ShutdownControl":
        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                self._previous[sig] = signal.signal(sig, self._handle)
        except ValueError:  # pragma: no cover - non-main thread
            self._previous = {}
        return self

    def restore(self) -> None:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        self._previous = {}

    def _handle(self, signum, frame) -> None:
        if os.getpid() != self._pid:
            # forked worker copy: shield the worker, let the parent drain.
            return
        self.signals += 1
        if self.draining:
            self.hard = True
            if self._raise_on_hard:
                raise KeyboardInterrupt
        else:
            self.draining = True


@dataclass
class ResumePlan:
    """What :func:`prepare_resume` decided about a half-finished store."""

    committed: Set[Cell] = field(default_factory=set)
    errors_skipped: Set[Cell] = field(default_factory=set)
    errors_retried: Set[Cell] = field(default_factory=set)
    reclaimed_leases: int = 0
    remaining: List[Cell] = field(default_factory=list)
    was_interrupted: bool = False

    def describe(self) -> str:
        return (
            f"resume: {len(self.committed)} committed cell(s) skipped, "
            f"{len(self.errors_skipped)} quarantined skipped, "
            f"{len(self.errors_retried)} quarantined retried, "
            f"{self.reclaimed_leases} stale lease(s) reclaimed, "
            f"{len(self.remaining)} cell(s) to run"
        )


def prepare_resume(
    store, meta: Dict[str, Any], grid: Sequence[Cell],
    retry_errors: bool = False,
) -> ResumePlan:
    """Plan the remainder of a half-finished campaign store.

    Refuses (``IncompatibleResumeError``) when the store's recorded
    campaign config differs from the requested one — resuming a seed-7
    campaign with seed 8 would silently produce a franken-campaign no
    fingerprint could vouch for. A store with no recorded config (empty
    or freshly created) resumes trivially into a full run.
    """
    stored = store.campaign_meta()
    if stored:
        diff = meta_diff(stored, meta)
        if diff:
            raise IncompatibleResumeError(
                diff, config_digest(stored), config_digest(meta)
            )
    reclaimed = store.reclaim_stale_leases()
    if reclaimed:
        log.warning("reclaimed %d stale lease(s) from a dead run", reclaimed)
    committed = store.committed_cells()
    error_cells = store.error_cells()
    retried: Set[Cell] = set()
    if retry_errors and error_cells:
        for cell in sorted(error_cells):
            store.delete_error(*cell)
        retried, error_cells = error_cells, set()
    remaining = [
        cell for cell in grid
        if cell not in committed and cell not in error_cells
    ]
    plan = ResumePlan(
        committed=committed & set(grid),
        errors_skipped=error_cells & set(grid),
        errors_retried=retried,
        reclaimed_leases=reclaimed,
        remaining=remaining,
        was_interrupted=store.interrupted(),
    )
    log.info(plan.describe())
    return plan
