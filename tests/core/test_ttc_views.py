"""The paper's TTC decomposition and the causal attribution agree.

Both views read one causal graph per execution: the decomposition's
overlapping Tw/Tx/Ts/Trp and ``t_lost``, and the attribution's exact
partition. Three relations must hold between them on every execution,
plain, fault-injected or supervised:

* equal TTC;
* the partition's Tx (every executing instant, completed or lost) is at
  most the paper's Tx span plus the lost work;
* the paper's Tw (first submission to first activation) precedes any
  execution or staging, so it fits in what the partition leaves over.
"""

import pytest

import repro.core.execution_manager as execution_manager
import repro.telemetry.causality as causality
from repro.core import Binding, PlannerConfig, RecoveryPolicy
from repro.experiments import TABLE1, build_environment, run_single
from repro.experiments.campaign import run_cell_report
from repro.faults import PRESET_NAMES, FaultInjector, preset_plan
from repro.health import SupervisionPolicy
from repro.skeleton import SkeletonAPI, paper_skeleton
from tests.health.test_chaos_supervision import (
    BREAKER_4H,
    PARTITION,
    run_supervised,
)

#: relative slack for the partition's float sums.
EPS = 1e-9


def run_chaos(preset, binding, n_pilots, n_tasks, seed=4):
    """One execution under a fault preset, set up as ``repro run`` does."""
    env = build_environment(seed=seed)
    env.warm_up(4 * 3600.0)
    env.execution_manager.attach_faults(FaultInjector(
        env.sim, preset_plan(preset, seed=0),
        pilot_manager=env.execution_manager.pilot_manager,
        network=env.network,
    ))
    config = PlannerConfig(
        binding=binding, n_pilots=n_pilots,
        unit_scheduler="direct" if binding is Binding.EARLY else "backfill",
    )
    skeleton = SkeletonAPI(paper_skeleton(n_tasks, gaussian=False), seed=seed)
    return env.execution_manager.execute(
        skeleton, config,
        recovery=RecoveryPolicy(max_resubmissions=2, jitter_frac=0.1),
    )


def _cell(exp_id, n_tasks):
    return lambda: run_cell_report(
        TABLE1[exp_id], n_tasks, rep=0, campaign_seed=2016
    )[0]


EXECUTIONS = {
    "oracle-exp3-256": _cell(3, 256),
    **{f"exp{e}-16": _cell(e, 16) for e in (1, 2, 3, 4)},
    **{
        f"{name}-{binding.value}-{n_pilots}p-{n_tasks}": (
            lambda name=name, binding=binding, n_pilots=n_pilots,
            n_tasks=n_tasks: run_chaos(name, binding, n_pilots, n_tasks)
        )
        for name in PRESET_NAMES
        for binding, n_pilots in ((Binding.EARLY, 1), (Binding.LATE, 3))
        for n_tasks in (64, 512)
    },
    "supervised-partition": lambda: run_supervised(
        PARTITION,
        SupervisionPolicy(breaker=BREAKER_4H, watchdog_timeout_s=120.0),
    ),
}


@pytest.mark.parametrize("name", sorted(EXECUTIONS))
def test_decomposition_and_attribution_agree(name):
    report = EXECUTIONS[name]()
    d, att = report.decomposition, report.attribution()
    parts = dict(att.components)
    slack = EPS * max(1.0, d.ttc)
    assert att.ttc == d.ttc
    assert parts["tx"] <= d.tx + d.t_lost + slack
    assert d.tw <= d.ttc - parts["tx"] - parts["ts"] + slack


def test_the_chaos_runs_exercise_recovery():
    # the relations above bite only if some runs lost or requeued work
    storm = EXECUTIONS["pilot-storm-late-3p-64"]().decomposition
    assert storm.restarts > 0 and storm.t_lost > 0
    dies = EXECUTIONS["first-pilot-dies-early-1p-512"]().decomposition
    assert dies.n_faults == 1 and dies.t_lost > 0
    supervised = EXECUTIONS["supervised-partition"]().decomposition
    assert supervised.units_rescheduled > 0 and supervised.t_quarantined > 0


def test_graph_is_built_once_per_cell(monkeypatch):
    calls = []
    real = causality.build_graph

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(causality, "build_graph", counting)
    monkeypatch.setattr(execution_manager, "build_graph", counting)
    run = run_single(TABLE1[3], 16, rep=0, campaign_seed=2016)
    assert run.units_done == 16
    assert len(calls) == 1
