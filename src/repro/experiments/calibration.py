"""Calibration validation: does the substrate behave like the testbed?

The whole reproduction rests on the simulated resources exhibiting the
queue dynamics of the production machines. This module runs each preset
for a simulated period and reports the observables that must be in range:

* sustained utilization near saturation (the paper's resources were
  persistently demand-saturated),
* a non-degenerate queue (jobs waiting most of the time),
* heavy-tailed queue waits for pilot-sized probe jobs,
* a job mix whose 30 s–30 min fraction is near the XDMoD statistics the
  paper cites (25–55% for 2010–2013).

`python -m repro calibrate` prints the report; a test asserts the bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..cluster import (
    BatchJob,
    PRESETS,
    WorkloadCharacterizer,
    build_resource,
)
from ..des import Simulation
from .runner import Cell, run_grid


@dataclass(frozen=True)
class ResourceCalibration:
    """Measured steady-state behaviour of one preset."""

    name: str
    mean_utilization: float
    mean_queue_length: float
    fraction_time_queued: float          # fraction of samples with queue > 0
    short_job_fraction: float            # 30 s - 30 min bucket
    probe_waits: Sequence[float]         # seconds, one per probe
    jobs_finished: int
    hours: float                         # simulated horizon

    def render(self) -> str:
        waits = ", ".join(f"{w:.0f}" for w in self.probe_waits)
        return (
            f"{self.name:>16}: util {self.mean_utilization:5.2f}, "
            f"queue {self.mean_queue_length:6.1f} "
            f"(busy {self.fraction_time_queued:5.1%}), "
            f"short jobs {self.short_job_fraction:5.1%}, "
            f"probe waits [{waits}] s"
        )


#: probes per calibration, spread over 25-90% of the horizon.
N_PROBES = 4
#: cores of each probe job.
PROBE_CORES = 256
#: simulated seconds between utilization and queue samples.
SAMPLE_INTERVAL_S = 600.0


def calibrate_resource(
    preset_name: str, seed: int = 0, hours: float = 24.0
) -> ResourceCalibration:
    """Measure one preset's steady-state behaviour and probe waits."""
    sim = Simulation(seed=seed)
    res = build_resource(sim, PRESETS[preset_name])
    characterizer = WorkloadCharacterizer(sim, res.cluster)

    utilizations: List[float] = []
    queue_lengths: List[float] = []
    probes: List[BatchJob] = []
    horizon = hours * 3600.0
    probe_times = np.linspace(horizon * 0.25, horizon * 0.9, N_PROBES)

    t = 0.0
    next_probe = 0
    while t < horizon:
        t += SAMPLE_INTERVAL_S
        sim.run(until=t)
        utilizations.append(res.cluster.utilization)
        queue_lengths.append(res.cluster.queue_length)
        while next_probe < N_PROBES and t >= probe_times[next_probe]:
            probe = BatchJob(
                cores=PROBE_CORES, runtime=900, walltime=1800, kind="probe"
            )
            res.cluster.submit(probe)
            probes.append(probe)
            next_probe += 1

    # Let outstanding probes start (bounded drain period).
    sim.run(until=horizon + 36 * 3600.0)
    waits = tuple(
        p.wait_time if p.wait_time is not None else float("inf")
        for p in probes
    )
    report = characterizer.report()
    return ResourceCalibration(
        name=preset_name,
        mean_utilization=float(np.mean(utilizations)),
        mean_queue_length=float(np.mean(queue_lengths)),
        fraction_time_queued=float(np.mean([q > 0 for q in queue_lengths])),
        short_job_fraction=report.fraction("30s-30m"),
        probe_waits=waits,
        jobs_finished=report.total_jobs,
        hours=hours,
    )


def _sample_calibration(
    names: Tuple[str, ...], seed: int, hours: float, cell: Cell,
) -> ResourceCalibration:
    """Calibrate preset ``names[cell[0]]``: one cell of the preset grid."""
    return calibrate_resource(names[cell[0]], seed=seed, hours=hours)


def calibrate_all(
    seed: int = 0, hours: float = 24.0, jobs: int = 1
) -> Dict[str, ResourceCalibration]:
    """Calibrate every preset (``jobs`` presets at a time).

    Each preset is one cell ``(index, 0, 0)`` of a grid on the campaign
    executor, independently seeded, so the parallel run returns exactly
    the serial results.
    """
    names = tuple(PRESETS)
    results = run_grid(
        partial(_sample_calibration, names, seed, hours),
        [(i, 0, 0) for i in range(len(names))],
        jobs=jobs,
    )
    return dict(zip(names, results))


def render_calibration(results: Dict[str, ResourceCalibration]) -> str:
    """Format calibrations that share one simulated horizon."""
    hours = next(iter(results.values())).hours
    unit = "hour" if hours == 1 else "hours"
    lines = [
        f"Substrate calibration ({hours:g} simulated {unit} per resource):"
    ]
    for cal in results.values():
        lines.append("  " + cal.render())
    return "\n".join(lines)
