"""Kernel microbenchmarks: the event heap and scheduler passes.

Isolates the two hot primitives the campaign benchmark aggregates —
event scheduling and dispatch, and backfill selection — so a
regression can be attributed to a layer, not just observed end to end.
All measurements are written to the untracked
``.bench_out/BENCH_kernel.json`` (uploaded by the CI ``kernel-bench``
job) and gated against the committed ``benchmarks/BENCH_baseline.json``:

* **Pop order** — the kernel must dispatch the pushed workload,
  including interleaved cancellations, in exactly the
  ``(time, priority, seq)`` order a sort of the surviving events
  gives. The callbacks record the digest as ``Simulation.run``
  dispatches them, so this checks the dispatch loop campaigns run. This
  is the host-independent gate and always applies.
* **Backfill picks** — every timed conservative pass must pick what
  the textbook reference planner
  (``tests/cluster/test_conservative_plan.py``) picks.
* **Reservation work** — each conservative pass on the three select
  fixtures must make no more reservations than the committed counts
  ``MAX_RESERVATIONS``, recorded before the planner was last changed.
  A reservation is the per-job unit of planning work, and unlike the
  wall gate below this gate trips on the first extra one.
* **Wall regression** — each microbenchmark must stay within
  ``REGRESSION_FACTOR``x of its committed baseline wall time, but never
  fails below the absolute floor ``MIN_LIMIT_S`` (loaded-runner noise).
  The floor dominates every committed baseline, so the gates catch
  only gross slowdowns: against 0.3–1.7 ms baselines a backfill pass
  must slow down roughly 150–800x to trip its gate, and against its
  98 ms baseline the ``kernel-queue-heap`` round about 2.5x.

Regenerate baselines on a quiet machine with::

    REPRO_BENCH_UPDATE=1 PYTHONPATH=src python -m pytest benchmarks/test_bench_kernel.py -q
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path
from time import perf_counter

from repro.cluster.job import BatchJob
from repro.cluster.schedulers.backfill import ConservativeBackfillScheduler
from repro.cluster.schedulers.base import (
    AllocationProfile,
    RunningMirror,
    SchedulerView,
)
from repro.des import Simulation
from tests.cluster.test_conservative_plan import reference_picks

_HERE = Path(__file__).parent
BASELINE_PATH = _HERE / "BENCH_baseline.json"
RESULTS_PATH = _HERE.parent / ".bench_out" / "BENCH_kernel.json"

#: wall time may legitimately vary with load; only a doubling fails.
REGRESSION_FACTOR = 2.0

#: never fail on absolute wall times below this (loaded-runner noise).
MIN_LIMIT_S = 0.25

#: events per queue microbenchmark round.
N_EVENTS = 20_000

_results: dict = {}


def _flush_results() -> None:
    data: dict = {}
    if RESULTS_PATH.exists():
        with open(RESULTS_PATH, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data.update(_results)
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    with open(RESULTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


def _baseline() -> dict:
    if not BASELINE_PATH.exists():
        return {}
    with open(BASELINE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _gate_wall(key: str, wall_s: float, extra: dict) -> None:
    """Record the measurement; update or enforce the committed baseline."""
    _results[key] = {"wall_s": wall_s, **extra}
    _flush_results()
    if os.environ.get("REPRO_BENCH_UPDATE"):
        baseline = _baseline()
        baseline[key] = {"wall_s": round(wall_s, 4)}
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
        return
    committed = _baseline().get(key)
    assert committed is not None, (
        f"no committed baseline for {key!r}; run with REPRO_BENCH_UPDATE=1"
    )
    limit = max(committed["wall_s"] * REGRESSION_FACTOR, MIN_LIMIT_S)
    assert wall_s <= limit, (
        f"{key}: {wall_s:.3f}s exceeds {REGRESSION_FACTOR}x the committed "
        f"baseline ({committed['wall_s']:.3f}s)"
    )


# -- the event queue -----------------------------------------------------------


def _queue_workload(seed: int = 2016, n: int = N_EVENTS):
    """Deterministic (time, priority, cancel_at) push plan.

    Times cluster around a moving "now" the way simulation events do
    (mostly near-future, a heavy tail of far reservations), priorities
    collide often enough to exercise the seq tie-break, and ~20% of
    events are cancelled after a few intervening pushes.
    """
    rng = random.Random(seed)
    plan = []
    now = 0.0
    for i in range(n):
        now += rng.expovariate(1.0)
        horizon = rng.expovariate(1 / 30.0) if rng.random() < 0.9 else (
            rng.uniform(0, 50_000.0)
        )
        priority = rng.choice((-10, 0, 0, 0, 5))
        cancel = rng.random() < 0.2
        plan.append((now + horizon, priority, cancel))
    return plan


def _drive(plan):
    """Push the plan (cancelling as marked), run the kernel dry, return
    the digest the callbacks record in dispatch order."""
    sim = Simulation()
    pending = []
    h = hashlib.sha256()

    def record(priority, seq):
        h.update(f"{sim.now!r}:{priority}:{seq};".encode())

    for seq, (time_, priority, cancel) in enumerate(plan):
        ev = sim.call_at(time_, record, priority, seq, priority=priority)
        if cancel:
            pending.append(ev)
            if len(pending) >= 7:
                sim.cancel(pending.pop(0))
    for ev in pending:
        sim.cancel(ev)
    sim.run()
    return h.hexdigest()


def _reference_digest(plan):
    """The pop-order digest :func:`_drive` must produce, from a sort."""
    h = hashlib.sha256()
    # every event marked for cancellation is cancelled before the drain
    for seq, (time_, priority, _) in sorted(
        ((seq, e) for seq, e in enumerate(plan) if not e[2]),
        key=lambda item: (item[1][0], item[1][1], item[0]),
    ):
        h.update(f"{time_!r}:{priority}:{seq};".encode())
    return h.hexdigest()


def test_bench_event_queue():
    plan = _queue_workload()
    best, digest = None, None
    for _ in range(3):
        w0 = perf_counter()
        digest = _drive(plan)
        wall = perf_counter() - w0
        best = wall if best is None else min(best, wall)
    ops = len(plan) * 2  # one push + one dispatch/cancel per event
    _gate_wall(
        "kernel-queue-heap", best, {"events": len(plan), "ops_per_sec": ops / best}
    )
    # Host-independent determinism gate: (time, priority, seq) order.
    assert digest == _reference_digest(plan), (
        "the kernel dispatched out of (time, priority, seq) order"
    )


# -- scheduler select cost vs queue depth --------------------------------------


def _select_fixture(depth: int, seed: int = 2016):
    """A pending queue of ``depth`` jobs against a busy 4096-core machine."""
    rng = random.Random(seed)
    mirror = RunningMirror()
    free = 4096
    uid = 10_000_000 + depth  # clear of real job uids
    for _ in range(256):
        cores = rng.choice((1, 1, 1, 4, 16, 64))
        if cores > free - 64:
            continue
        free -= cores
        uid += 1
        mirror.start(uid, rng.uniform(10.0, 86_400.0), cores)
    pending = [
        BatchJob(
            cores=rng.choice((1, 1, 2, 8, 32, 128)),
            runtime=rng.uniform(60.0, 3_600.0),
            walltime=rng.uniform(600.0, 14_400.0),
        )
        for _ in range(depth)
    ]
    return SchedulerView(
        now=0.0, free_cores=free, pending=pending, mirror=mirror
    )


def test_bench_backfill_select_depth():
    """Times a conservative pass at three queue depths. Every timed pass
    must pick what the textbook reference planner picks."""
    scheduler = ConservativeBackfillScheduler()
    for depth in (50, 200, 800):
        view = _select_fixture(depth)
        expected = reference_picks(view)
        best, picks = None, None
        for _ in range(3):
            w0 = perf_counter()
            picks = scheduler.select(view)
            wall = perf_counter() - w0
            best = wall if best is None else min(best, wall)
            assert picks == expected, f"depth {depth}: picks differ"
        _gate_wall(
            f"backfill-select-{depth}",
            best,
            {"depth": depth, "picks": len(picks)},
        )


#: Reservations one conservative pass makes on each select fixture
#: (depth -> count), as recorded before the planner's last change: 41,
#: 180 and 180 jobs planned for 12, 18 and 18 picks.
MAX_RESERVATIONS = {50: 41, 200: 180, 800: 180}


def test_backfill_select_reservations(monkeypatch):
    """Every conservative pass on the select fixtures makes no more
    reservations than ``MAX_RESERVATIONS`` allows, and picks what the
    textbook reference planner picks. Counted by wrapping
    ``AllocationProfile.reserve``; the scheduler keeps no counter."""
    calls = []
    reserve = AllocationProfile.reserve

    def counted(self, *args):
        calls.append(args)
        return reserve(self, *args)

    monkeypatch.setattr(AllocationProfile, "reserve", counted)
    scheduler = ConservativeBackfillScheduler()
    for depth, limit in MAX_RESERVATIONS.items():
        view = _select_fixture(depth)
        expected = reference_picks(view)
        for _ in range(3):
            calls.clear()
            assert scheduler.select(view) == expected
            assert len(calls) <= limit, (
                f"depth {depth}: {len(calls)} reservations, limit {limit}"
            )
