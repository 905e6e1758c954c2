"""Chaos scenarios over the full stack: robustness and reproducibility.

Two headline properties:

* the paper's robustness argument — late binding over several pilots
  survives a pilot death that kills an early-bound single-pilot run;
* determinism — the same seeded FaultPlan yields a byte-for-byte
  identical FaultLog and an identical TTC decomposition on a fresh
  simulation.
"""

from repro.bundle import ResourceBundle
from repro.cluster import Cluster
from repro.core import Binding, ExecutionManager, PlannerConfig, RecoveryPolicy
from repro.des import Simulation
from repro.faults import (
    FaultInjector,
    FaultPlan,
    KillPilot,
    PilotHazard,
    SubmitHazard,
)
from repro.net import Network
from repro.pilot import UnitState
from repro.skeleton import SkeletonAPI, bag_of_tasks

N_TASKS = 24
TASK_S = 900.0


def run_chaos(
    plan,
    binding=Binding.LATE,
    n_pilots=3,
    seed=0,
    recovery=None,
    n_tasks=N_TASKS,
    task_s=TASK_S,
):
    """One full execution under a fault plan, in a fresh simulation."""
    sim = Simulation(seed=seed)
    net = Network(sim)
    clusters = {}
    for name in ("alpha", "beta", "gamma"):
        net.add_site(name, bandwidth_bytes_per_s=1e7, latency_s=0.01)
        clusters[name] = Cluster(sim, name, nodes=16, cores_per_node=16,
                                 submit_overhead=1.0)
    bundle = ResourceBundle("pool", sim, net, clusters)
    em = ExecutionManager(sim, net, bundle)
    em.attach_faults(FaultInjector(
        sim, plan, pilot_manager=em.pilot_manager, network=net
    ))
    config = PlannerConfig(
        binding=binding,
        n_pilots=n_pilots,
        unit_scheduler="direct" if binding is Binding.EARLY else "backfill",
    )
    api = SkeletonAPI(bag_of_tasks(n_tasks, task_duration=task_s), seed=1)
    return em.execute(api, config, recovery=recovery)


KILL_FIRST = FaultPlan(seed=0, actions=(KillPilot(at=600.0, index=0),))


# -- the acceptance scenario ---------------------------------------------------


def test_late_binding_survives_the_kill_that_sinks_early_binding():
    """Same fault, opposite outcomes: the paper's robustness claim."""
    late = run_chaos(KILL_FIRST, binding=Binding.LATE, n_pilots=3)
    early = run_chaos(KILL_FIRST, binding=Binding.EARLY, n_pilots=1)

    # late binding: tasks re-bind to the surviving pilots and finish
    assert late.succeeded
    assert late.decomposition.units_done == N_TASKS
    assert late.decomposition.restarts > 0       # work really was re-run
    assert late.decomposition.t_lost > 0.0       # and it cost something
    assert late.decomposition.n_faults == 1

    # early binding: the only pilot died; the run ends in failure
    assert not early.succeeded
    assert early.decomposition.units_done < N_TASKS
    assert early.decomposition.n_faults == 1
    d = early.decomposition
    assert d.units_done + d.units_failed + d.units_canceled == N_TASKS


def test_restarted_units_do_not_double_count():
    report = run_chaos(KILL_FIRST, binding=Binding.LATE, n_pilots=3)
    d = report.decomposition
    # every task is counted exactly once, whatever its journey
    assert d.units_done + d.units_failed + d.units_canceled == N_TASKS
    assert d.units_done == sum(
        1 for u in report.units if u.state is UnitState.DONE
    )
    assert d.restarts == sum(u.restarts for u in report.units)
    # a unit that completed after a restart is done, not done-and-failed
    restarted_and_done = [
        u for u in report.units if u.restarts > 0 and u.state is UnitState.DONE
    ]
    assert restarted_and_done, "the kill should have forced restarts"


# -- byte-for-byte reproducibility --------------------------------------------


def assert_identical_runs(plan, **kw):
    a = run_chaos(plan, **kw)
    b = run_chaos(plan, **kw)
    assert a.fault_log.canonical_json() == b.fault_log.canonical_json()
    assert a.fault_log.digest() == b.fault_log.digest()
    # TTCDecomposition is a frozen dataclass of floats/ints/tuples: repr
    # equality is field-for-field equality (and robust to NaN waits).
    assert repr(a.decomposition) == repr(b.decomposition)
    assert a.succeeded == b.succeeded
    assert len(a.recoveries) == len(b.recoveries)
    return a


def test_scripted_plan_reproduces_exactly():
    report = assert_identical_runs(KILL_FIRST)
    assert report.decomposition.n_faults == 1


def test_hazard_plan_reproduces_exactly():
    plan = FaultPlan(seed=13, actions=(
        PilotHazard(rate_per_s=1.0 / 1200.0),
        SubmitHazard(p_fail=0.2),
    ))
    report = assert_identical_runs(
        plan, recovery=RecoveryPolicy(max_resubmissions=2, backoff_s=30.0)
    )
    assert report.decomposition.n_faults == len(report.fault_log)


def test_fault_seed_changes_the_outcome_but_not_the_substrate():
    """Fault draws come from the plan's seed: same substrate, new chaos."""
    base = FaultPlan(seed=1, actions=(PilotHazard(rate_per_s=1.0 / 1000.0),))
    other = FaultPlan(seed=2, actions=base.actions)
    a = run_chaos(base)
    b = run_chaos(other)
    assert a.fault_log.digest() != b.fault_log.digest()
    # the substrate is untouched by fault draws: with no faults at all,
    # two different plan seeds give identical clean executions.
    clean_a = run_chaos(FaultPlan(seed=1))
    clean_b = run_chaos(FaultPlan(seed=2))
    assert repr(clean_a.decomposition) == repr(clean_b.decomposition)
    assert clean_a.succeeded and clean_b.succeeded


def test_fault_log_flows_into_report_and_summary():
    report = run_chaos(KILL_FIRST)
    assert report.fault_log is not None
    assert report.fault_log.by_kind() == {"pilot-kill": 1}
    assert "faults 1" in report.summary()
    assert "lost" in report.summary()
