"""Supervised chaos: the acceptance scenario for health supervision.

Three headline properties:

* a scripted outage opens the resource's breaker and the late-binding
  run completes on the remaining resources;
* a full link partition hangs staging units; the watchdog catches them
  within its timeout and they finish elsewhere;
* the whole supervision timeline is deterministic — two runs of the
  same seeded scenario (jittered backoffs included) produce
  byte-for-byte identical FaultLog *and* health-event traces.
"""

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import (
    Binding,
    ExecutionManager,
    PlannerConfig,
    RecoveryPolicy,
)
from repro.des import Simulation
from repro.faults import DegradeLink, FaultInjector, FaultPlan, Outage
from repro.health import BreakerPolicy, SupervisionPolicy
from repro.net import Network
from repro.pilot import UnitState
from repro.skeleton import SkeletonAPI, bag_of_tasks


def run_supervised(
    plan,
    supervision,
    seed=0,
    n_tasks=18,
    task_s=900.0,
    input_size=1e6,
    bandwidth=1e7,
    recovery=None,
):
    """One supervised execution under a fault plan, in a fresh simulation."""
    sim = Simulation(seed=seed)
    net = Network(sim)
    clusters = {}
    for name in ("alpha", "beta", "gamma"):
        net.add_site(name, bandwidth_bytes_per_s=bandwidth, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=16, cores_per_node=16,
                                 submit_overhead=1.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle, supervision=supervision)
    em.attach_faults(FaultInjector(
        sim, plan, pilot_manager=em.pilot_manager, network=net
    ))
    config = PlannerConfig(
        binding=Binding.LATE, n_pilots=3, unit_scheduler="backfill"
    )
    api = SkeletonAPI(
        bag_of_tasks(n_tasks, task_duration=task_s, input_size=input_size),
        seed=1,
    )
    return em.execute(api, config, recovery=recovery)


OUTAGE = FaultPlan(seed=0, actions=(
    Outage(at=600.0, resource="alpha", duration=4 * 3600.0),
))

PARTITION = FaultPlan(seed=0, actions=(
    DegradeLink(at=80.0, site="alpha", factor=0.0, duration=2 * 3600.0),
))

BREAKER_4H = BreakerPolicy(failure_threshold=2, cooldown_s=4 * 3600.0)


def test_outage_opens_the_breaker_and_the_run_survives():
    report = run_supervised(
        OUTAGE,
        SupervisionPolicy(breaker=BREAKER_4H),
        recovery=RecoveryPolicy(max_resubmissions=2, jitter_frac=0.1),
    )
    assert report.succeeded
    opened = report.health_log.of_kind("breaker-open")
    assert "alpha" in {e.target for e in opened}
    assert report.decomposition.t_quarantined > 0.0
    # every task landed on a surviving resource
    done = [u for u in report.units if u.state is UnitState.DONE]
    assert done and all(u.pilot.resource in ("beta", "gamma") for u in done)
    assert "quarantined" in report.summary()


def test_watchdog_catches_units_hung_on_a_partitioned_link():
    report = run_supervised(
        PARTITION,
        SupervisionPolicy(breaker=BREAKER_4H, watchdog_timeout_s=120.0),
        n_tasks=12,
        task_s=300.0,
        input_size=1e7,
        bandwidth=1e6,
    )
    assert report.succeeded
    assert report.decomposition.units_rescheduled >= 1
    caught = report.health_log.of_kind("watchdog-reschedule")
    assert caught
    # caught within the timeout plus one check interval of the partition
    # (the watchdog checks every timeout/4 = 30s by default)
    assert caught[0].time <= 80.0 + 120.0 + 30.0 + 1.0
    # the partition was treated as direct evidence against alpha
    opened = report.health_log.of_kind("breaker-open")
    assert any(
        e.target == "alpha" and dict(e.details).get("reason") == "link-partition"
        for e in opened
    )
    # hung units finished on a healthy resource
    done = [u for u in report.units if u.state is UnitState.DONE]
    assert all(u.pilot.resource in ("beta", "gamma") for u in done)


def assert_identical_supervised_runs(plan, supervision, **kw):
    a = run_supervised(plan, supervision, **kw)
    b = run_supervised(plan, supervision, **kw)
    assert a.fault_log.canonical_json() == b.fault_log.canonical_json()
    assert a.fault_log.digest() == b.fault_log.digest()
    assert a.health_log.canonical_json() == b.health_log.canonical_json()
    assert a.health_log.digest() == b.health_log.digest()
    assert repr(a.decomposition) == repr(b.decomposition)
    assert a.succeeded == b.succeeded
    assert len(a.replans) == len(b.replans)
    return a


def test_supervised_outage_run_reproduces_byte_for_byte():
    """Jittered backoffs draw from the kernel's seeded streams, so even
    the full supervision stack replays identically."""
    report = assert_identical_supervised_runs(
        OUTAGE,
        SupervisionPolicy(
            breaker=BREAKER_4H,
            watchdog_timeout_s=600.0,
            deadline_s=24 * 3600.0,
        ),
        recovery=RecoveryPolicy(max_resubmissions=2, jitter_frac=0.1),
    )
    assert report.health_log.of_kind("breaker-open")


def test_watchdog_partition_run_reproduces_byte_for_byte():
    report = assert_identical_supervised_runs(
        PARTITION,
        SupervisionPolicy(breaker=BREAKER_4H, watchdog_timeout_s=120.0),
        n_tasks=12,
        task_s=300.0,
        input_size=1e7,
        bandwidth=1e6,
    )
    assert report.health_log.of_kind("watchdog-reschedule")


def test_kernel_seed_does_not_leak_into_the_fault_stream():
    """Different run seeds: different substrate, identical scripted faults."""
    sup = SupervisionPolicy(breaker=BREAKER_4H)
    a = run_supervised(OUTAGE, sup, seed=1,
                       recovery=RecoveryPolicy(jitter_frac=0.1))
    b = run_supervised(OUTAGE, sup, seed=2,
                       recovery=RecoveryPolicy(jitter_frac=0.1))
    assert a.fault_log.digest() == b.fault_log.digest()
    assert a.succeeded and b.succeeded
