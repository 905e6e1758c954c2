"""Tests for substrate calibration validation."""

import math

import pytest

from repro.experiments import (
    calibrate_resource,
    render_calibration,
)
from repro.experiments.calibration import N_PROBES


@pytest.fixture(scope="module")
def gordon_cal():
    # short horizon keeps the test fast; gordon is the smallest-job preset
    return calibrate_resource("gordon-sim", seed=4, hours=8)


def test_report_fields_sane(gordon_cal):
    cal = gordon_cal
    assert 0 <= cal.mean_utilization <= 1
    assert cal.mean_queue_length >= 0
    assert 0 <= cal.fraction_time_queued <= 1
    assert 0 <= cal.short_job_fraction <= 1
    assert cal.jobs_finished > 0
    assert len(cal.probe_waits) == N_PROBES
    assert all(w >= 0 for w in cal.probe_waits)


def test_machine_is_busy(gordon_cal):
    """A saturated preset must sustain high utilization over the horizon."""
    assert gordon_cal.mean_utilization > 0.6


def test_probes_eventually_start(gordon_cal):
    assert all(math.isfinite(w) for w in gordon_cal.probe_waits)


def test_render(gordon_cal):
    text = render_calibration({"gordon-sim": gordon_cal})
    assert "gordon-sim" in text
    assert "probe waits" in text


def test_render_reports_the_simulated_hours(gordon_cal):
    text = render_calibration({"gordon-sim": gordon_cal})
    assert text.startswith(
        "Substrate calibration (8 simulated hours per resource):"
    )


def test_deterministic():
    a = calibrate_resource("gordon-sim", seed=9, hours=4)
    b = calibrate_resource("gordon-sim", seed=9, hours=4)
    assert a.mean_utilization == b.mean_utilization
    assert a.probe_waits == b.probe_waits
