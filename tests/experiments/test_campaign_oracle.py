"""Every run of the committed seed-2016 campaign reproduces its paper fields.

``campaign_2016.json`` at the repository root is the full Exp1-4 x
8..2048 tasks x 6 reps campaign (``python -m repro campaign --reps 6
--seed 2016``). The reference digests cover TTC and the causal
partition; this covers the paper's own decomposition (Tw, Tx, Ts, Trp)
and the counts beside it. Each run is re-executed through
:func:`run_single` and its fields must be bit-identical; the file is
only read. Slow (~40 s on 2 CPUs): run with ``pytest -m slow``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import TABLE1, run_single

CAMPAIGN = Path(__file__).resolve().parents[2] / "campaign_2016.json"
SEED = 2016
FIELDS = (
    "ttc", "tw", "tw_last", "tx", "ts", "trp", "pilot_waits",
    "units_done", "restarts", "resources",
)


def _runs():
    with open(CAMPAIGN, "r", encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def test_oracle_covers_the_grid():
    runs = _runs()
    assert len(runs) == 216
    assert {r["n_tasks"] for r in runs} == {2 ** k for k in range(3, 12)}


@pytest.mark.slow
def test_campaign_2016_fields_are_bit_identical():
    drifted = []
    for expected in _runs():
        run = run_single(
            TABLE1[expected["exp_id"]], expected["n_tasks"], expected["rep"],
            campaign_seed=SEED,
        )
        # compared as JSON, the file's own encoding: exact for floats,
        # and NaN pilot waits compare equal to themselves.
        bad = [
            name for name in FIELDS
            if json.dumps(getattr(run, name)) != json.dumps(expected[name])
        ]
        if bad:
            drifted.append(
                f"{expected['exp_id']}/{expected['n_tasks']}/"
                f"{expected['rep']}: {bad}"
            )
    assert not drifted, f"{len(drifted)} runs drifted: {drifted}"
