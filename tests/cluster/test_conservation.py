"""Conservation invariants of a live cluster, checked after every event.

Warm-ups of three presets, one per scheduling policy — blacklight
(FCFS), stampede (EASY backfill) and hopper (conservative backfill) —
run at three seeds with an outage in the middle. The checker is attached
as the kernel's profiler, whose ``record`` the dispatch loop calls after
every event, so the check adds no code to the simulator. After each
event it asserts:

* cores are conserved: ``free_cores`` plus the running jobs' cores is
  the machine's core count, and ``free_cores`` is never negative;
* the scheduler's running mirror holds exactly the running jobs, each
  with its expected end (start plus walltime) and its cores;
* the pending uid set is the uids of the pending queue;
* every pending job is PENDING, and every running job is RUNNING and
  started no earlier than it was queued;
* jobs are conserved: the primed and the streamed jobs are pending,
  running, completed or killed (once the primed jobs' submit overhead
  has passed);
* simulated time never decreases.
"""

import pytest

from repro.cluster import JobState
from repro.cluster.presets import PRESETS, build_resource
from repro.cluster.workload import BackgroundWorkload
from repro.des import Simulation

HOURS = 3 * 3600.0
OUTAGE_AT, OUTAGE_S = 3600.0, 900.0


class _ConservationCheck:
    """Checks one cluster's invariants after every kernel event."""

    def __init__(self, sim, cluster, workload, primed, overhead):
        self.sim = sim
        self.cluster = cluster
        self.workload = workload
        self.primed = primed
        self.overhead = overhead
        self.now = sim.now
        self.events = 0

    def record(self, callback, wall):
        cluster = self.cluster
        now = self.sim.now
        assert now >= self.now, f"time went back: {self.now} -> {now}"
        self.now = now
        self.events += 1

        running = [job for job, _ in cluster._run_mirror.items()]
        pending = cluster._pending
        assert cluster.free_cores >= 0
        assert (
            cluster.free_cores + sum(j.cores for j in running)
            == cluster.total_cores
        )
        assert sorted(
            (end, cores) for end, _seq, cores in cluster._run_mirror.entries
        ) == sorted((j.start_time + j.walltime, j.cores) for j in running)
        assert cluster._pending_uids == {j.uid for j in pending}
        assert len(cluster._pending_uids) == len(pending)
        assert all(j.state is JobState.PENDING for j in pending)
        for job in running:
            assert job.state is JobState.RUNNING
            assert job.start_time >= job.submit_time
        if now > self.overhead:
            assert self.primed + self.workload.submitted == (
                len(pending) + len(running)
                + cluster.completed_jobs + cluster.killed_jobs
            )


@pytest.mark.parametrize("seed", [1, 2016, 90210])
@pytest.mark.parametrize(
    "preset", ["blacklight-sim", "stampede-sim", "hopper-sim"]
)
def test_warm_up_conserves_cores_and_jobs(preset, seed, monkeypatch):
    preset = PRESETS[preset]
    sim = Simulation(seed=seed)
    # build_resource primes the machine; the spy keeps prime()'s count of
    # the jobs it queued, which the balance below needs
    counts = []
    real_prime = BackgroundWorkload.prime

    def spy(self, *args, **kwargs):
        counts.append(real_prime(self, *args, **kwargs))
        return counts[-1]

    monkeypatch.setattr(BackgroundWorkload, "prime", spy)
    res = build_resource(sim, preset)
    cluster, workload = res.cluster, res.workload
    (primed,) = counts
    check = _ConservationCheck(
        sim, cluster, workload, primed, preset.submit_overhead
    )
    sim.telemetry.profiler = check
    sim.call_at(OUTAGE_AT, cluster.set_offline, OUTAGE_S)
    sim.run(until=HOURS)

    assert check.events > 100
    assert cluster.completed_jobs > 0
    # the outage failed the jobs running at its start, and they balance
    assert cluster.killed_jobs > 0
    assert workload.submitted > 0
