"""FaultPlan: validation, reading JSON, presets."""

import math

import pytest

from repro.faults import (
    ACTION_KINDS,
    DegradeLink,
    FaultPlan,
    FaultPlanError,
    KillPilot,
    Outage,
    PilotHazard,
    PRESET_NAMES,
    SubmitFailures,
    SubmitHazard,
    preset_plan,
)


def full_plan(seed=42):
    return FaultPlan(
        seed=seed,
        actions=(
            KillPilot(at=3600.0, index=0),
            KillPilot(at=7200.0, resource="stampede-sim"),
            PilotHazard(rate_per_s=1e-4, start=100.0, stop=5000.0),
            SubmitFailures(count=2, resource="comet-sim"),
            SubmitHazard(p_fail=0.25, permanent=True),
            DegradeLink(at=1000.0, site="gordon-sim", factor=0.1, duration=600.0),
            Outage(at=2000.0, resource="stampede-sim", duration=900.0),
        ),
    )


def test_every_action_kind_is_registered():
    plan = full_plan()
    assert {a.kind for a in plan.actions} == set(ACTION_KINDS)


def test_of_kind_filters():
    plan = full_plan()
    assert len(plan.of_kind("kill-pilot")) == 2
    assert len(plan.of_kind("outage")) == 1
    assert plan.of_kind("nonexistent") == ()


FULL_PLAN_JSON = """{"seed": 7, "actions": [
  {"kind": "kill-pilot", "at": 3600.0, "index": 0},
  {"kind": "kill-pilot", "at": 7200.0, "resource": "stampede-sim"},
  {"kind": "pilot-hazard", "rate_per_s": 1e-4, "start": 100.0, "stop": 5000.0},
  {"kind": "submit-failures", "count": 2, "resource": "comet-sim"},
  {"kind": "submit-hazard", "p_fail": 0.25, "permanent": true},
  {"kind": "degrade-link", "at": 1000.0, "site": "gordon-sim",
   "factor": 0.1, "duration": 600.0},
  {"kind": "outage", "at": 2000.0, "resource": "stampede-sim",
   "duration": 900.0}
]}"""


def test_json_file_loads_every_action_kind(tmp_path):
    assert FaultPlan.from_json(FULL_PLAN_JSON) == full_plan(seed=7)
    path = tmp_path / "plan.json"
    path.write_text(FULL_PLAN_JSON)
    assert FaultPlan.load(str(path)) == full_plan(seed=7)


def test_open_hazard_window_survives_json():
    """``null`` is how a JSON plan spells an open window (no Infinity)."""
    plan = FaultPlan.from_json(
        '{"actions": [{"kind": "pilot-hazard", "rate_per_s": 0.001,'
        ' "stop": null}]}'
    )
    assert plan.actions == (PilotHazard(rate_per_s=0.001),)
    assert plan.actions[0].stop == math.inf


def test_unknown_kind_rejected():
    with pytest.raises(FaultPlanError, match="unknown fault kind"):
        FaultPlan.from_dict({"seed": 0, "actions": [{"kind": "meteor"}]})
    with pytest.raises(FaultPlanError, match="unknown fault action"):
        FaultPlan(actions=("not-an-action",))


def test_malformed_action_rejected():
    with pytest.raises(FaultPlanError, match="malformed"):
        FaultPlan.from_dict(
            {"seed": 0, "actions": [{"kind": "kill-pilot", "at": -1.0}]}
        )


@pytest.mark.parametrize(
    "bad",
    [
        lambda: KillPilot(at=-5.0),
        lambda: PilotHazard(rate_per_s=0.0),
        lambda: PilotHazard(rate_per_s=1.0, start=10.0, stop=5.0),
        lambda: SubmitFailures(count=0),
        lambda: SubmitHazard(p_fail=0.0),
        lambda: SubmitHazard(p_fail=1.5),
        lambda: DegradeLink(at=0.0, site="x", factor=1.0, duration=10.0),
        lambda: DegradeLink(at=0.0, site="x", factor=0.5, duration=0.0),
        lambda: Outage(at=0.0, resource="x", duration=-1.0),
    ],
)
def test_action_validation(bad):
    with pytest.raises(ValueError):
        bad()


def test_presets_resolve_and_carry_the_seed():
    for name in PRESET_NAMES:
        plan = preset_plan(name, seed=99)
        assert plan.seed == 99
        assert plan.actions
    with pytest.raises(FaultPlanError, match="unknown fault preset"):
        preset_plan("apocalypse")
