#!/usr/bin/env python
"""Quickstart: execute a bag-of-tasks on three simulated HPC resources.

Builds the full stack — simulated clusters with live background
workloads, the WAN, a resource bundle, and the AIMES execution manager —
then runs a 64-task application with the default (late-binding,
backfill, 3-pilot) strategy and prints the measured TTC decomposition.

Run:  python examples/quickstart.py
"""

from repro import (
    ExecutionManager,
    Network,
    ResourceBundle,
    SkeletonAPI,
    Simulation,
    bag_of_tasks,
    build_pool,
)


def main() -> None:
    # One simulation kernel drives everything.
    sim = Simulation(seed=42)

    # Five simulated resources (primed, busy) + the WAN star to them.
    network = Network(sim)
    pool = build_pool(sim)
    for name in pool:
        network.add_site(name)

    # A bundle characterizes the resources uniformly.
    bundle = ResourceBundle("testbed", sim, network, pool.values())
    schemas = {n: r.preset.access_schema for n, r in pool.items()}

    # Let the machines churn for two simulated hours before we submit.
    sim.run(until=2 * 3600)

    # Describe the application: 64 independent 15-minute tasks, 1 MB in /
    # 2 KB out per task.
    app = bag_of_tasks(
        n_tasks=64, task_duration=900.0,
        input_size=1_000_000, output_size=2_000,
    )
    skeleton = SkeletonAPI(app, seed=7)

    # The execution manager derives and enacts the strategy.
    em = ExecutionManager(sim, network, bundle, access_schemas=schemas)
    report = em.execute(skeleton)

    print(report.strategy.describe())
    print()
    print(report.summary())
    d = report.decomposition
    print(
        f"\nPer-pilot queue waits: "
        f"{', '.join(f'{w:.0f}s' for w in d.pilot_waits)}"
    )
    print(f"Tasks completed: {d.units_done}/{report.n_tasks}")


if __name__ == "__main__":
    main()
