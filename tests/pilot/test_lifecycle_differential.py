"""Every transition a run records is in the P* tables.

``advance`` checks each transition as it happens; this test reads the
recorded histories back after whole executions — the paper's four
experiments, the three fault presets under early and late binding, and
a breaker + watchdog supervised run — so a path that bypassed the check
(or a table that lost a row the middleware needs) shows up here.
"""

import pytest

from repro.lifecycle import PILOT_TABLE, UNIT_TABLE
from repro.faults import PRESET_NAMES
from tests.core.test_ttc_views import EXECUTIONS

RUNS = sorted(
    [f"exp{e}-16" for e in (1, 2, 3, 4)]
    + [
        f"{name}-{binding}-64"
        for name in PRESET_NAMES
        for binding in ("early-1p", "late-3p")
    ]
    + ["supervised-partition"]
)


def _steps(entity):
    states = [s for s, _ in entity.history.as_list()]
    assert states[0] == "NEW"
    return list(zip(states, states[1:]))


@pytest.mark.parametrize("name", RUNS)
def test_recorded_transitions_are_in_the_tables(name):
    report = EXECUTIONS[name]()
    for table, entities in (
        (PILOT_TABLE, report.pilots), (UNIT_TABLE, report.units),
    ):
        assert entities
        for entity in entities:
            for old, new in _steps(entity):
                assert new in table[old].successors, (
                    f"{entity.uid}: {old} -> {new} is not in the table"
                )
