"""Seed-stability: sampling and digests must not depend on wall clocks."""

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import Binding, ExecutionManager, PlannerConfig
from repro.des import Simulation
from repro.experiments import build_environment
from repro.faults import FaultInjector, FaultPlan, KillPilot
from repro.net import Network
from repro.skeleton import SkeletonAPI, bag_of_tasks, paper_skeleton


def _sampled_run(seed):
    env = build_environment(
        seed=seed, resources=("stampede-sim", "gordon-sim"), telemetry=True
    )
    env.sim.telemetry.start_sampler(env.sim, interval_s=900.0)
    env.warm_up(3600.0)
    env.execution_manager.execute(
        SkeletonAPI(paper_skeleton(16, gaussian=False), seed=1),
        PlannerConfig(binding=Binding.LATE, n_pilots=2),
    )
    env.sim.telemetry.stop_sampler(env.sim)
    env.sim.telemetry.close_open_spans()
    return env.sim.telemetry


def test_metrics_sampling_is_deterministic_under_fixed_seed():
    a, b = _sampled_run(123), _sampled_run(123)
    assert a.samples == b.samples
    assert a.canonical_json() == b.canonical_json()
    assert a.digest() == b.digest()


def test_different_seed_changes_the_digest():
    assert _sampled_run(123).digest() != _sampled_run(124).digest()


def _chaos_run(seed=0):
    """A faulted execution with telemetry on (mirrors tests/faults idiom)."""
    sim = Simulation(seed=seed)
    sim.telemetry.enable()
    net = Network(sim)
    clusters = {}
    for name in ("alpha", "beta", "gamma"):
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=16, cores_per_node=16,
                                 submit_overhead=1.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle)
    plan = FaultPlan(seed=0, actions=(KillPilot(at=600.0, index=0),))
    em.attach_faults(FaultInjector(
        sim, plan, pilot_manager=em.pilot_manager, network=net
    ))
    report = em.execute(
        SkeletonAPI(bag_of_tasks(24, task_duration=900.0), seed=1),
        PlannerConfig(binding=Binding.LATE, n_pilots=3,
                      unit_scheduler="backfill"),
    )
    sim.telemetry.close_open_spans()
    return sim, report


def test_telemetry_digest_is_byte_stable_across_identical_chaos_runs():
    sim_a, rep_a = _chaos_run()
    sim_b, rep_b = _chaos_run()
    assert rep_a.succeeded and rep_b.succeeded
    # the faulted run really diverged from a clean one...
    assert rep_a.decomposition.n_faults == 1
    # ...and still replays byte-for-byte, telemetry included
    assert sim_a.telemetry.canonical_json() == sim_b.telemetry.canonical_json()
    assert sim_a.telemetry.digest() == sim_b.telemetry.digest()
    assert rep_a.fault_log.digest() == rep_b.fault_log.digest()
    assert rep_a.telemetry.digest == rep_b.telemetry.digest
