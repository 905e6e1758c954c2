#!/usr/bin/env python
"""Compare execution strategies for the same application.

The paper's central question: given one application and a pool of
dynamic resources, which coupling wins? This example executes the same
256-task bag with four strategies — early/1-pilot, late/1..3-pilot —
each on a fresh, identically-seeded testbed (paired comparison), and
prints the TTC decomposition side by side.

The four strategies are independent simulations, so they run as the
cells of one grid on the campaign executor (``run_grid``), across
worker processes. Each worker builds its own testbed from the same
seed, which makes the table identical to a serial run — on a single-CPU
machine the grid quietly runs in-process, so there is no penalty for
asking.

Run:  python examples/strategy_comparison.py
"""

from repro.core import Binding, PlannerConfig
from repro.experiments import build_environment, resolve_jobs, run_grid
from repro.skeleton import SkeletonAPI, paper_skeleton

N_TASKS = 256
SEED = 1234

STRATEGIES = [
    ("early, 1 pilot, direct", PlannerConfig(
        binding=Binding.EARLY, n_pilots=1)),
    ("late, 1 pilot, backfill", PlannerConfig(
        binding=Binding.LATE, n_pilots=1)),
    ("late, 2 pilots, backfill", PlannerConfig(
        binding=Binding.LATE, n_pilots=2)),
    ("late, 3 pilots, backfill", PlannerConfig(
        binding=Binding.LATE, n_pilots=3)),
]


def run_strategy(cell):
    """Strategy ``cell[0]`` on a fresh testbed (runs in a worker process)."""
    label, config = STRATEGIES[cell[0]]
    # The *same* seed for every strategy: identical background load,
    # so differences come from the strategy alone.
    env = build_environment(seed=SEED)
    env.warm_up(4 * 3600)
    skeleton = SkeletonAPI(paper_skeleton(N_TASKS, gaussian=False), seed=5)
    report = env.execution_manager.execute(skeleton, config)
    d = report.decomposition
    resources = ",".join(r.split("-")[0] for r in report.strategy.resources)
    return label, d.ttc, d.tw, d.tx, d.ts, resources


def main() -> None:
    jobs = min(len(STRATEGIES), resolve_jobs(0))
    mode = f"{jobs} worker processes" if jobs > 1 else "serially (1 CPU)"
    print(f"Application: {N_TASKS} x 15-minute single-core tasks")
    print(f"Running {len(STRATEGIES)} paired strategies {mode}\n")

    rows = run_grid(
        run_strategy, [(i, N_TASKS, 0) for i in range(len(STRATEGIES))],
        jobs=jobs,
    )

    header = (
        f"{'strategy':>26} | {'TTC(s)':>8} | {'Tw(s)':>7} | {'Tx(s)':>7} | "
        f"{'Ts(s)':>6} | resources"
    )
    print(header)
    print("-" * len(header))
    for label, ttc, tw, tx, ts, resources in rows:
        print(
            f"{label:>26} | {ttc:>8.0f} | {tw:>7.0f} | {tx:>7.0f} | "
            f"{ts:>6.0f} | {resources}"
        )

    print(
        "\nReading the table: late binding with several pilots keeps TTC "
        "low and stable because\nthe first pilot out of any queue starts "
        "draining tasks; the early-bound single pilot\nrides out whatever "
        "wait its one chosen queue imposes."
    )


if __name__ == "__main__":
    main()
