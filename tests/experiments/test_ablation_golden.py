"""Differential gate: every ablation study and calibration, bit for bit.

``ablation_golden.json`` holds the exact ``repr`` of every float the nine
:class:`AblationPoint` studies, the emergent/sampled waits study and
:func:`calibrate_all` return at small sizes. Each sample seeds itself
from its grid coordinates alone, so the outputs must match the fixture
exactly at every ``jobs``.

Regenerate the fixture (only for a deliberate, documented change of the
simulation) with::

    PYTHONPATH=src python tests/experiments/test_ablation_golden.py
"""

import json
import os

import pytest

from repro.experiments import (
    binding_rationale_study,
    calibrate_all,
    data_affinity_ablation,
    emergent_vs_sampled_study,
    energy_study,
    heterogeneity_ablation,
    locality_study,
    nonuniform_tasks_study,
    pilot_count_sweep,
    pool_scaling_study,
    scheduler_ablation,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "ablation_golden.json")

#: study name -> (function, keyword arguments); the seeds are those of
#: ``test_ablation.py``, the sizes small enough for tier-1.
STUDIES = {
    "pilots": (pilot_count_sweep,
               dict(n_tasks=8, pilot_counts=(1, 3), reps=2, seed=1)),
    "scheduler": (scheduler_ablation, dict(n_tasks=8, reps=2, seed=2)),
    "heterogeneity": (heterogeneity_ablation, dict(n_tasks=8, reps=2, seed=3)),
    "data": (data_affinity_ablation,
             dict(n_tasks=8, input_mb=10, reps=2, seed=4)),
    "scaling": (pool_scaling_study,
                dict(n_tasks=8, pool_size=5, pilot_counts=(1, 3, 9),
                     reps=2, seed=5)),
    "nonuniform": (nonuniform_tasks_study, dict(n_tasks=8, reps=2, seed=6)),
    "binding": (binding_rationale_study, dict(n_tasks=8, reps=2, seed=10)),
    "energy": (energy_study, dict(n_tasks=8, reps=2, seed=14)),
    "locality": (locality_study,
                 dict(n_map_tasks=8, intermediate_mb=5, reps=2, seed=18)),
}


def _exact(value):
    """Floats as their ``repr`` (inf and NaN included), recursively."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value


def compute(jobs: int) -> dict:
    """Every study's outputs at ``jobs`` workers, floats as reprs."""
    out = {
        name: [
            _exact([p.label, p.ttc_mean, p.ttc_std, p.aux_mean, p.aux_std,
                    p.n_runs, p.aux_name])
            for p in fn(jobs=jobs, **kwargs)
        ]
        for name, (fn, kwargs) in STUDIES.items()
    }
    waits = emergent_vs_sampled_study(n_pairs=4, jobs=jobs)
    out["waits"] = _exact([
        waits.emergent_corr, waits.sampled_corr, waits.emergent_mean,
        waits.sampled_mean, waits.n_pairs,
    ])
    out["calibrate"] = {
        name: _exact([
            cal.mean_utilization, cal.mean_queue_length,
            cal.fraction_time_queued, cal.short_job_fraction,
            list(cal.probe_waits), cal.jobs_finished,
        ])
        for name, cal in calibrate_all(hours=2, jobs=jobs).items()
    }
    return out


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("jobs", [1, 2])
def test_outputs_match_golden_bit_for_bit(golden, jobs):
    assert compute(jobs) == golden


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(compute(jobs=1), fh, indent=1, sort_keys=True)
        fh.write("\n")
