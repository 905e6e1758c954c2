"""Five campaign cells, held bit for bit against recorded values.

Most of a cell's events are the background load of the simulated batch
queues, so a change to the cluster layer that moves one push, one draw
or one pick moves at least one of the three numbers pinned here for
each cell (campaign seed 2016, rep 0; Exp1-4 x 8 tasks and Exp3 x 256
tasks):

* ``events`` — the kernel events the cell's simulation processed;
* ``attribution_digest`` — the cell's TTC attribution and critical path;
* ``digest`` — with ``collect_digests=True``, the telemetry, fault and
  health logs, which include every scheduler-pass span with its pending
  count and free cores.

``exact_cells.json`` was recorded once and is only read here; change
it only for a deliberate change of the simulated behaviour.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import TABLE1, run_single

_PINNED = json.loads(
    (Path(__file__).with_name("exact_cells.json")).read_text(encoding="utf-8")
)


@pytest.mark.parametrize("cell", sorted(_PINNED["cells"]))
def test_cell_is_bit_identical(cell):
    exp_id, n_tasks, rep = (int(x) for x in cell.split("/"))
    seed = _PINNED["campaign_seed"]
    want = _PINNED["cells"][cell]
    plain = run_single(TABLE1[exp_id], n_tasks, rep, campaign_seed=seed)
    traced = run_single(
        TABLE1[exp_id], n_tasks, rep, campaign_seed=seed,
        collect_digests=True,
    )
    assert plain.events == want["events"]
    assert plain.attribution_digest == want["attribution_digest"]
    assert traced.events == want["events"]
    assert traced.attribution_digest == want["attribution_digest"]
    assert traced.digest == want["digest"]
