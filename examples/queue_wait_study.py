#!/usr/bin/env python
"""Study queue-wait dynamics through the Bundle interfaces.

Exercises all three bundle interfaces on a live testbed:

* the *query* interface (on-demand utilization/queue snapshots),
* the *predictive* interface (QBETS-like quantile bounds vs the EWMA
  point estimate, validated against actually measured pilot waits),
* the *monitoring* interface (a threshold subscription that fires when
  a resource's queue backs up).

The closing section replays the probe measurement on several
independently-seeded testbeds at once, as the cells of one grid on the
campaign executor (``run_grid``) — each replica is its own simulation,
so the fan-out cannot perturb any result; a replica that fails is named
without losing the others, and on a single-CPU machine the grid quietly
runs in-process instead.

Run:  python examples/queue_wait_study.py
"""

import math

from repro.experiments import build_environment, resolve_jobs, run_grid
from repro.pilot import ComputePilotDescription, PilotManager

SEEDS = [101, 202, 303, 404]


def probe_replica(cell):
    """Measure 128-core probe waits on a fresh testbed seeded by
    ``SEEDS[rep]`` (runs in a worker process)."""
    env = build_environment(seed=SEEDS[cell[2]])
    env.warm_up(8 * 3600)
    clusters = {n: env.bundle.cluster(n) for n in env.bundle.resources()}
    pm = PilotManager(env.sim, clusters)
    probes = {}
    for name in env.bundle.resources():
        (pilot,) = pm.submit_pilots(
            ComputePilotDescription(resource=name, cores=128, runtime_min=60)
        )
        probes[name] = pilot
    env.sim.run(until=env.sim.now + 24 * 3600)
    return {name: p.queue_wait for name, p in probes.items()}


def main() -> None:
    env = build_environment(seed=77, telemetry=True)
    sim, bundle = env.sim, env.bundle

    # Monitoring: subscribe to congestion events on every resource.
    alerts = []
    for name in bundle.resources():
        bundle.subscribe(
            name,
            predicate=lambda snap: snap.compute.queue_length >= 25,
            callback=lambda uid, snap: alerts.append(
                (snap.timestamp, snap.name, snap.compute.queue_length)
            ),
            dwell_s=300,
        )

    env.warm_up(8 * 3600)

    # Query: snapshot every resource.
    print("On-demand snapshots after 8 simulated hours:")
    header = (
        f"{'resource':>16} | {'cores':>6} | {'util':>5} | {'queue':>5} | "
        f"{'policy':>22} | {'predicted wait':>14}"
    )
    print(header)
    print("-" * len(header))
    for snap in bundle.query_all():
        c = snap.compute
        print(
            f"{snap.name:>16} | {c.total_cores:>6} | {c.utilization:>5.2f} | "
            f"{c.queue_length:>5} | {c.scheduler_policy:>22} | "
            f"{c.setup_time_estimate:>13.0f}s"
        )

    # Prediction vs measurement: submit probe pilots, compare.
    print("\nPredicted vs measured wait for a 128-core, 1-hour pilot:")
    clusters = {n: bundle.cluster(n) for n in bundle.resources()}
    pm = PilotManager(sim, clusters)
    probes = {}
    for name in bundle.resources():
        predicted_q = bundle.predict_wait(name, cores=128, mode="quantile")
        predicted_e = bundle.predict_wait(name, cores=128, mode="ewma")
        (pilot,) = pm.submit_pilots(
            ComputePilotDescription(resource=name, cores=128, runtime_min=60)
        )
        probes[name] = (pilot, predicted_q, predicted_e)
    sim.run(until=sim.now + 24 * 3600)

    header = (
        f"{'resource':>16} | {'quantile bound':>14} | {'ewma':>8} | "
        f"{'measured':>9} | within bound?"
    )
    print(header)
    print("-" * len(header))
    for name, (pilot, pq, pe) in probes.items():
        measured = pilot.queue_wait
        shown = f"{measured:>8.0f}s" if measured is not None else "   (queued)"
        ok = "yes" if (measured is not None and measured <= pq) else "no"
        print(f"{name:>16} | {pq:>13.0f}s | {pe:>7.0f}s | {shown} | {ok}")

    print(f"\nCongestion alerts fired: {len(alerts)}")
    for t, name, qlen in alerts[:5]:
        print(f"  t={t / 3600:.1f}h {name}: queue length {qlen}")

    # Replicate the probe measurement on independent testbeds, up to
    # one worker process per usable CPU (in-process on a single CPU).
    jobs = min(len(SEEDS), resolve_jobs(0))
    mode = f"{jobs} workers" if jobs > 1 else "serially (1 CPU)"
    print(f"\nProbe waits across {len(SEEDS)} independent testbeds ({mode}):")
    replicas = run_grid(
        probe_replica, [(0, 0, rep) for rep in range(len(SEEDS))], jobs=jobs
    )
    header = f"{'resource':>16} | {'min':>8} | {'mean':>8} | {'max':>8}"
    print(header)
    print("-" * len(header))
    for name in bundle.resources():
        waits = [r[name] for r in replicas if r[name] is not None]
        if not waits:
            print(f"{name:>16} |   (all probes still queued)")
            continue
        mean = math.fsum(waits) / len(waits)
        print(
            f"{name:>16} | {min(waits):>7.0f}s | {mean:>7.0f}s | "
            f"{max(waits):>7.0f}s"
        )

    # Telemetry: everything the run just did, as one metrics table.
    print("\nTelemetry metrics after the study:")
    print(sim.telemetry.metrics.render_table())
    print()
    print(sim.telemetry.summary())


if __name__ == "__main__":
    main()
