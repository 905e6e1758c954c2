"""Every cell of the committed reference grid reproduces its attribution digest.

``bench/reference_digests.json`` holds the attribution digests of 408
campaign cells (Exp1-4 x 8..2048 tasks x 4 reps at three campaign
seeds), recorded by ``python -m bench reference``. This reruns each
cell through :func:`run_single` and compares; the file is only read.
Slow (a few minutes): run with ``pytest -m slow``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import TABLE1, run_single

REFERENCE = Path(__file__).resolve().parents[2] / "bench" / "reference_digests.json"


def _cells():
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        cells = json.load(fh)["cells"]
    by_seed = {}
    for key, digest in cells.items():
        seed, coords = key.split(":")
        exp_id, n_tasks, rep = (int(x) for x in coords.split("/"))
        by_seed.setdefault(int(seed), []).append(
            ((exp_id, n_tasks, rep), digest)
        )
    return by_seed


_BY_SEED = _cells()


def test_reference_covers_the_grid():
    assert sum(len(v) for v in _BY_SEED.values()) == 408


@pytest.mark.slow
@pytest.mark.parametrize("campaign_seed", sorted(_BY_SEED))
def test_reference_digests(campaign_seed):
    mismatched = []
    for (exp_id, n_tasks, rep), digest in sorted(_BY_SEED[campaign_seed]):
        run = run_single(
            TABLE1[exp_id], n_tasks, rep, campaign_seed=campaign_seed
        )
        if run.attribution_digest != digest:
            mismatched.append(f"{campaign_seed}:{exp_id}/{n_tasks}/{rep}")
    assert not mismatched, f"{len(mismatched)} cells drifted: {mismatched}"
