"""Unit tests for the batch-job state model."""

import pytest

from repro.cluster import BatchJob, IllegalTransition, JobState
from repro.cluster.job import FINAL_STATES


def make_job(**kw):
    defaults = dict(cores=4, runtime=100.0, walltime=200.0)
    defaults.update(kw)
    return BatchJob(**defaults)


def test_defaults_and_validation():
    job = make_job()
    assert job.state is JobState.NEW
    assert job.name.startswith("job.")
    assert job.state not in FINAL_STATES
    with pytest.raises(ValueError):
        make_job(cores=0)
    with pytest.raises(ValueError):
        make_job(runtime=-1)
    with pytest.raises(ValueError):
        make_job(walltime=0)


def test_unique_uids():
    a, b = make_job(), make_job()
    assert a.uid != b.uid
    assert a != b
    assert a == a


def test_legal_lifecycle():
    job = make_job()
    job.advance(JobState.PENDING)
    job.advance(JobState.RUNNING)
    job.advance(JobState.COMPLETED)
    assert job.state in FINAL_STATES


def test_timeout_path():
    job = make_job()
    job.advance(JobState.PENDING)
    job.advance(JobState.RUNNING)
    job.advance(JobState.TIMEOUT)
    assert job.state in FINAL_STATES


def test_illegal_transitions_rejected():
    job = make_job()
    with pytest.raises(IllegalTransition):
        job.advance(JobState.RUNNING)  # NEW -> RUNNING skips PENDING
    job.advance(JobState.PENDING)
    with pytest.raises(IllegalTransition):
        job.advance(JobState.COMPLETED)  # PENDING -> COMPLETED skips RUNNING
    job.advance(JobState.RUNNING)
    job.advance(JobState.COMPLETED)
    with pytest.raises(IllegalTransition):
        job.advance(JobState.RUNNING)  # out of a final state


def test_callbacks_see_old_and_new():
    job = make_job()
    seen = []
    job.add_callback(lambda j, old, new: seen.append((old, new)))
    job.advance(JobState.PENDING)
    job.advance(JobState.CANCELLED)
    assert seen == [
        (JobState.NEW, JobState.PENDING),
        (JobState.PENDING, JobState.CANCELLED),
    ]


def test_wait_time():
    job = make_job()
    assert job.wait_time is None
    job.submit_time = 10.0
    assert job.wait_time is None
    job.start_time = 35.0
    assert job.wait_time == 25.0
