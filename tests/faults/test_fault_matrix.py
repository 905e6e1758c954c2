"""The fault matrix: {binding x scheduler} x {fault plan}, accounting checks.

Every cell runs a full execution and asserts the report's books balance:
each task is counted exactly once across done/failed/canceled, restart
counts agree with the unit histories, and ``succeeded`` means exactly
"every task is done" — under every combination of strategy and fault.
"""

import pytest

from repro.core import Binding, RecoveryPolicy
from repro.faults import (
    DegradeLink,
    FaultPlan,
    KillPilot,
    Outage,
    PilotHazard,
    SubmitFailures,
    SubmitHazard,
)
from repro.pilot import UnitState

from .test_chaos import N_TASKS, run_chaos

STRATEGIES = [
    pytest.param(Binding.EARLY, 1, id="early-direct-1p"),
    pytest.param(Binding.LATE, 3, id="late-backfill-3p"),
]

PLANS = [
    pytest.param(FaultPlan(seed=0), id="no-faults"),
    pytest.param(
        FaultPlan(seed=0, actions=(KillPilot(at=600.0, index=0),)),
        id="kill-first-pilot",
    ),
    pytest.param(
        FaultPlan(seed=7, actions=(PilotHazard(rate_per_s=1.0 / 1800.0),)),
        id="pilot-hazard",
    ),
    pytest.param(
        FaultPlan(seed=3, actions=(
            SubmitFailures(count=1),
            SubmitHazard(p_fail=0.15),
        )),
        id="flaky-submission",
    ),
    pytest.param(
        FaultPlan(seed=0, actions=(
            Outage(at=300.0, resource="alpha", duration=600.0),
        )),
        id="outage",
    ),
    pytest.param(
        FaultPlan(seed=0, actions=(
            DegradeLink(at=100.0, site="alpha", factor=0.1, duration=900.0),
        )),
        id="degraded-wan",
    ),
]


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("binding,n_pilots", STRATEGIES)
def test_accounting_balances_in_every_cell(binding, n_pilots, plan):
    report = run_chaos(
        plan,
        binding=binding,
        n_pilots=n_pilots,
        recovery=RecoveryPolicy(max_resubmissions=1, backoff_s=30.0),
    )
    d = report.decomposition

    # every task counted exactly once across the terminal states
    assert d.units_done + d.units_failed + d.units_canceled == N_TASKS
    assert d.units_done == sum(
        1 for u in report.units if u.state is UnitState.DONE
    )
    assert d.units_failed == sum(
        1 for u in report.units if u.state is UnitState.FAILED
    )
    assert d.units_canceled == sum(
        1 for u in report.units if u.state is UnitState.CANCELED
    )

    # succeeded means exactly "all done" — never true on a partial run
    assert report.succeeded == (d.units_done == N_TASKS)

    # restart bookkeeping: decomposition matches unit histories, and a
    # done unit's history holds one more DONE-reachable attempt than
    # restarts (no attempt is counted twice)
    assert d.restarts == sum(u.restarts for u in report.units)
    for u in report.units:
        executions = sum(
            1 for state, _ in u.history.as_list()
            if state == UnitState.EXECUTING.value
        )
        assert executions <= u.restarts + 1

    # time components stay sane under chaos
    assert d.ttc >= 0
    assert d.tx >= 0 and d.ts >= 0 and d.trp >= 0
    assert d.t_lost >= 0
    assert d.n_faults == len(report.fault_log)

    # a clean cell shows no fault side-effects
    if not plan.actions:
        assert report.succeeded
        assert d.n_faults == 0 and d.t_lost == 0.0 and d.restarts == 0


@pytest.mark.parametrize("binding,n_pilots", STRATEGIES)
def test_restarts_only_on_pilot_loss(binding, n_pilots):
    """Submission-layer faults never burn executed work."""
    plan = FaultPlan(seed=3, actions=(SubmitFailures(count=2),))
    report = run_chaos(plan, binding=binding, n_pilots=n_pilots)
    d = report.decomposition
    assert d.t_lost == 0.0
    assert d.restarts == 0
