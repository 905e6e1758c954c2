"""Every way a pilot joins a live execution, held against a golden.

Six scenarios, one per mid-run path: a backup pilot on a stalled
start, a recovery resubmission on the original resource, a recovery
rerouted around a quarantined resource, a deadline re-plan, a deadline
expiry with its final sweep, and a watchdog reschedule. For each, the golden holds the report summary, the three
event lists, every pilot's lifecycle, and the telemetry, fault-log,
health-log and attribution digests, all recorded before the four paths
were folded into one. Regenerate only for a deliberate behaviour change:

    PYTHONPATH=src python tests/core/test_mid_run_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import (
    AdaptationPolicy,
    Binding,
    ExecutionManager,
    PlannerConfig,
    RecoveryPolicy,
)
from repro.des import Simulation
from repro.experiments import build_environment
from repro.faults import (
    DegradeLink,
    FaultInjector,
    FaultPlan,
    KillPilot,
    Outage,
)
from repro.health import BreakerPolicy, SupervisionPolicy
from repro.net import Network
from repro.skeleton import SkeletonAPI, bag_of_tasks, paper_skeleton

GOLDEN = Path(__file__).with_name("mid_run_golden.json")


def small_stack(sites, seed=0, faults=None, **em_kw):
    """A telemetry-on simulation over ``sites`` ({name: nodes} of 16 cores)."""
    sim = Simulation(seed=seed)
    sim.telemetry.enable()
    net = Network(sim)
    clusters = {}
    for name, nodes in sites.items():
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=nodes, cores_per_node=16,
                                 submit_overhead=1.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle, **em_kw)
    if faults is not None:
        em.attach_faults(FaultInjector(
            sim, faults, pilot_manager=em.pilot_manager, network=net
        ))
    return sim, clusters, em


def paper_env(seed, warm_up_s, plan=None, supervision=None):
    env = build_environment(seed=seed, supervision=supervision,
                            telemetry=True)
    env.warm_up(warm_up_s)
    if plan is not None:
        env.execution_manager.attach_faults(FaultInjector(
            env.sim, plan,
            pilot_manager=env.execution_manager.pilot_manager,
            network=env.network,
        ))
    return env


def backup():
    """A pilot pinned to the worst queue, rescued by a backup pilot."""
    env = paper_env(321, 8 * 3600)
    target = env.bundle.rank_by_expected_wait()[-1][0]
    return env.execution_manager.execute(
        SkeletonAPI(paper_skeleton(64, gaussian=False), seed=3),
        PlannerConfig(binding=Binding.LATE, n_pilots=1, resources=(target,)),
        adaptation=AdaptationPolicy(activation_deadline_s=900,
                                    max_backup_pilots=2),
    )


def resubmit():
    """The early-bound pilot dies; recovery resubmits it in place."""
    env = paper_env(2016, 4 * 3600,
                    plan=FaultPlan(seed=7, actions=(KillPilot(at=600.0,
                                                              index=0),)))
    return env.execution_manager.execute(
        SkeletonAPI(paper_skeleton(64, gaussian=False), seed=3),
        PlannerConfig(binding=Binding.EARLY, n_pilots=1,
                      unit_scheduler="direct"),
        recovery=RecoveryPolicy(max_resubmissions=2, backoff_s=120.0),
    )


def reroute():
    """An outage trips the pilot's resource; the replacement goes elsewhere."""
    sim, clusters, em = small_stack(
        {"big": 16, "alt": 16, "small": 1}, supervision=SupervisionPolicy(),
    )
    sim.call_at(900.0, clusters["big"].set_offline, 3600.0)
    return em.execute(
        SkeletonAPI(bag_of_tasks(64, task_duration=7200), seed=1),
        PlannerConfig(binding=Binding.EARLY, n_pilots=1, resources=("big",),
                      unit_scheduler="direct"),
        recovery=RecoveryPolicy(max_resubmissions=2),
    )


def replan():
    """The supervised pass of ``examples/chaos_study.py``."""
    env = paper_env(
        2016, 4 * 3600,
        plan=FaultPlan(seed=7, actions=(
            Outage(at=600.0, resource="stampede-sim", duration=4 * 3600.0),
            DegradeLink(at=1200.0, site="gordon-sim", factor=0.0,
                        duration=3 * 3600.0),
        )),
        supervision=SupervisionPolicy(
            breaker=BreakerPolicy(failure_threshold=2, cooldown_s=3600.0),
            watchdog_timeout_s=900.0,
            deadline_s=12 * 3600.0,
            check_interval_s=300.0,
        ),
    )
    return env.execution_manager.execute(
        SkeletonAPI(paper_skeleton(64, gaussian=False), seed=3),
        PlannerConfig(binding=Binding.LATE, n_pilots=3,
                      unit_scheduler="backfill"),
        recovery=RecoveryPolicy(max_resubmissions=2, jitter_frac=0.1),
    )


def expiry():
    """Every link partitions as outputs stage; the deadline expires and
    the final sweep cuts loose the units hung in output staging."""
    sites = {"alpha": 16, "beta": 16, "gamma": 16}
    sim, clusters, em = small_stack(
        sites,
        faults=FaultPlan(seed=0, actions=tuple(
            DegradeLink(at=1100.0, site=name, factor=0.0,
                        duration=4 * 3600.0)
            for name in sites
        )),
        supervision=SupervisionPolicy(deadline_s=2500.0,
                                      check_interval_s=200.0),
    )
    return em.execute(
        SkeletonAPI(bag_of_tasks(96, task_duration=1200.0,
                                 output_size=1e8), seed=1),
        PlannerConfig(binding=Binding.LATE, n_pilots=2, pilot_cores=32,
                      unit_scheduler="backfill"),
    )


def watchdog():
    """Inputs hang on a partitioned link; the watchdog reschedules them."""
    sim, clusters, em = small_stack(
        {"alpha": 16, "beta": 16, "gamma": 16},
        faults=FaultPlan(seed=0, actions=(
            DegradeLink(at=80.0, site="alpha", factor=0.0,
                        duration=2 * 3600.0),
        )),
        supervision=SupervisionPolicy(
            breaker=BreakerPolicy(failure_threshold=2,
                                  cooldown_s=4 * 3600.0),
            watchdog_timeout_s=120.0,
        ),
    )
    return em.execute(
        SkeletonAPI(bag_of_tasks(12, task_duration=300.0, input_size=1e8),
                    seed=1),
        PlannerConfig(binding=Binding.LATE, n_pilots=3,
                      unit_scheduler="backfill"),
    )


SCENARIOS = {
    f.__name__: f
    for f in (backup, resubmit, reroute, replan, expiry, watchdog)
}


def record(report):
    return {
        "summary": report.summary(),
        "adaptations": repr(report.adaptations),
        "recoveries": repr(report.recoveries),
        "replans": repr(report.replans),
        "pilots": [
            [p.uid, p.resource, p.cores,
             [[s, t] for s, t in p.history.as_list()]]
            for p in report.pilots
        ],
        "telemetry_digest": report.telemetry.digest,
        "fault_digest": (
            report.fault_log.digest() if report.fault_log is not None
            else None
        ),
        "health_digest": (
            report.health_log.digest() if report.health_log is not None
            else None
        ),
        "attribution_digest": report.attribution().digest(),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_mid_run_path_matches_the_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    # JSON round trip: tuples and floats compare as the golden stores them
    assert json.loads(json.dumps(record(SCENARIOS[name]()))) == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: record(run()) for name, run in sorted(SCENARIOS.items())},
        indent=1,
    ) + "\n")
