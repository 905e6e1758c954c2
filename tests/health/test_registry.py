"""HealthRegistry: fusing monitor, SAGA, pilot, and fault-log signals."""

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.des import Simulation
from repro.faults import fault_log
from repro.health import BreakerPolicy, BreakerState, HealthRegistry
from repro.net import Network
from repro.pilot import ComputePilotDescription, PilotManager, PilotState


def make_registry(**reg_kw):
    sim = Simulation(seed=0)
    reg_kw.setdefault("breaker", BreakerPolicy(failure_threshold=2))
    return sim, HealthRegistry(sim, **reg_kw)


def test_failures_quarantine_through_the_breaker():
    sim, reg = make_registry()
    reg.record_failure("alpha")
    assert not reg.is_quarantined("alpha")
    reg.record_failure("alpha")
    assert reg.is_quarantined("alpha")
    assert reg.breaker("alpha").state is BreakerState.OPEN
    assert not reg.allow_submission("alpha")
    assert reg.healthy(("alpha", "beta")) == ("beta",)
    assert reg.quarantined(("alpha", "beta")) == ("alpha",)


def test_no_breaker_policy_means_no_quarantine():
    sim, reg = make_registry(breaker=None)
    for _ in range(10):
        reg.record_failure("alpha")
    assert not reg.is_quarantined("alpha")
    assert reg.allow_submission("alpha")
    assert reg.breaker("alpha") is None


def half_open_stack():
    """A registry whose "alpha" breaker is half-open at t=11, a pilot
    manager reporting to it, and one probe pilot submitted then."""
    sim = Simulation(seed=0)
    reg = HealthRegistry(
        sim, breaker=BreakerPolicy(failure_threshold=1, cooldown_s=10.0)
    )
    alpha = Cluster(sim, "alpha", nodes=4, cores_per_node=8,
                    submit_overhead=1.0)
    pm = PilotManager(sim, {"alpha": alpha}, health=reg)
    reg.record_failure("alpha")
    sim.run(until=11.0)
    assert reg.breaker("alpha").state is BreakerState.HALF_OPEN
    (pilot,) = pm.submit_pilots(
        ComputePilotDescription(resource="alpha", cores=8, runtime_min=60)
    )
    reg.observe_pilot(pilot)
    return sim, reg, alpha, pilot


def test_submission_acceptance_does_not_close_a_half_open_breaker():
    """A queued placeholder proves nothing; only activation closes."""
    sim, reg, alpha, pilot = half_open_stack()
    alpha.set_offline(100.0)  # the probe's job is accepted, then waits
    sim.run(until=50.0)
    assert pilot.saga_job is not None and pilot.state is not PilotState.ACTIVE
    assert reg.breaker("alpha").state is BreakerState.HALF_OPEN
    assert not reg.allow_submission("alpha")  # the probe slot is taken
    sim.run(until=500.0)
    assert pilot.state is PilotState.ACTIVE
    assert reg.breaker("alpha").state is BreakerState.CLOSED


def test_pilot_lifecycle_feeds_the_registry():
    sim, reg, alpha, pilot = half_open_stack()
    sim.run(until=500.0)
    assert pilot.state is PilotState.ACTIVE
    (close,) = reg.log.of_kind("breaker-close")
    assert (close.target, dict(close.details)) == (
        "alpha", {"reason": "pilot-active"}
    )
    assert not reg.is_quarantined("alpha")


def test_quarantine_rejected_pilot_is_not_counted_as_failure():
    """The breaker's own fail-fast must not feed back into the breaker."""
    sim, reg = make_registry(breaker=BreakerPolicy(failure_threshold=1))

    class FakePilot:
        resource = "alpha"
        quarantine_rejected = True

        def add_callback(self, fn):
            self.fn = fn

    pilot = FakePilot()
    reg.observe_pilot(pilot)
    pilot.fn(pilot, PilotState.FAILED)
    assert not reg.is_quarantined("alpha")
    pilot.quarantine_rejected = False
    pilot.fn(pilot, PilotState.FAILED)
    assert reg.is_quarantined("alpha")


def test_fault_log_listener_trips_on_outage_and_partition():
    sim, reg = make_registry()
    log = fault_log()
    log.add_listener(reg.on_fault_event)
    log.record(sim.now, "outage", "alpha", duration=600.0)
    assert reg.is_quarantined("alpha")
    # a slowdown is not a partition: no trip
    log.record(sim.now, "link-degrade", "beta", factor=0.5)
    assert not reg.is_quarantined("beta")
    log.record(sim.now, "link-degrade", "beta", factor=0.0)
    assert reg.is_quarantined("beta")
    # and the listener never altered the log's digest inputs
    assert log.by_kind() == {"outage": 1, "link-degrade": 2}


def test_fault_listener_ignores_other_kinds():
    sim, reg = make_registry(breaker=BreakerPolicy(failure_threshold=5))
    log = fault_log()
    log.add_listener(reg.on_fault_event)
    log.record(sim.now, "pilot-kill", "alpha/pilot#0", cause="scripted")
    assert not reg.is_quarantined("alpha")


def make_bundle(sim, names=("alpha", "beta")):
    net = Network(sim)
    clusters = {}
    for name in names:
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=4, cores_per_node=8,
                                 submit_overhead=1.0)
    return clusters, ResourceBundle("pool", sim, net, clusters)


def test_bundle_monitor_offline_trips_the_breaker():
    sim = Simulation(seed=0)
    clusters, bundle = make_bundle(sim)
    reg = HealthRegistry(sim, breaker=BreakerPolicy(failure_threshold=5))
    reg.watch(bundle)
    clusters["alpha"].set_offline(3600.0)
    sim.run(until=200.0)  # a couple of monitor ticks
    assert reg.is_quarantined("alpha")
    assert not reg.is_quarantined("beta")
    assert reg.log.of_kind("breaker-open")[0].target == "alpha"


def test_record_event_reaches_listeners_and_the_trace():
    sim, reg = make_registry()
    sim.telemetry.enable()
    seen = []
    reg.log.add_listener(seen.append)
    reg.record_event("watchdog-reschedule", "unit-1", state="EXECUTING")
    assert len(seen) == 1 and seen[0].kind == "watchdog-reschedule"
    (inst,) = sim.telemetry.instants
    assert (inst["name"], inst["track"]) == ("watchdog-reschedule", "health/unit-1")
    reg.log.remove_listener(seen.append)
    reg.record_event("replan", "*")
    assert len(seen) == 1  # removed listeners stay quiet
