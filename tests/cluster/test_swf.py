"""Tests for SWF trace parsing, replay, and export."""

import pytest

from repro.cluster import (
    BatchJob,
    Cluster,
    JobState,
    SwfError,
    SwfJob,
    SwfReplay,
    export_swf,
    parse_swf,
)
from repro.des import Simulation

SAMPLE = """\
; Sample SWF trace
; UnixStartTime: 0
1 0 10 3600 32 -1 -1 32 7200 -1 1 17 1 1 1 1 -1 -1
2 60 0 1800 16 -1 -1 16 3600 -1 1 18 1 1 1 1 -1 -1
3 120 0 -1 8 -1 -1 8 600 -1 0 19 1 1 1 1 -1 -1
4 180 0 300 -1 -1 -1 4 600 -1 1 20 1 1 1 1 -1 -1
"""


class TestParse:
    def test_parses_valid_jobs(self):
        jobs = parse_swf(SAMPLE.splitlines())
        # job 3 dropped (runtime -1)
        assert [j.job_id for j in jobs] == [1, 2, 4]
        j1 = jobs[0]
        assert j1.submit_time == 0
        assert j1.run_time == 3600
        assert j1.processors == 32
        assert j1.requested_time == 7200
        assert j1.user == "swf17"

    def test_requested_processors_fallback(self):
        # field 8 (reqprocs) is -1 -> fall back to allocated (field 5)
        line = "9 0 0 100 12 -1 -1 -1 200 -1 1 5 1 1 1 1 -1 -1"
        (job,) = parse_swf([line])
        assert job.processors == 12

    def test_requested_time_fallback(self):
        line = "9 0 0 100 4 -1 -1 4 -1 -1 1 5 1 1 1 1 -1 -1"
        (job,) = parse_swf([line])
        assert job.requested_time >= 100

    def test_malformed_rejected(self):
        with pytest.raises(SwfError):
            parse_swf(["1 2 3"])
        with pytest.raises(SwfError):
            parse_swf(["a b c d e f g h i j k"])

    def test_comments_and_blanks_skipped(self):
        assert parse_swf(["; header", "", "   "]) == []


class TestReplay:
    def test_replay_runs_trace(self):
        sim = Simulation(seed=0)
        cluster = Cluster(sim, "replay", nodes=4, cores_per_node=16,
                          submit_overhead=0.0)
        jobs = parse_swf(SAMPLE.splitlines())
        replay = SwfReplay(sim, cluster, jobs)
        starts = []
        cluster.add_listener(
            lambda job, old, new: new is JobState.RUNNING
            and starts.append(sim.now)
        )
        assert replay.start() == 3
        sim.run()
        assert cluster.completed_jobs == 3
        # job 1: 32 cores at t=0 on an idle 64-core machine
        assert starts[0] == 0.0

    def test_time_scale_compresses(self):
        sim = Simulation(seed=0)
        cluster = Cluster(sim, "replay", nodes=4, cores_per_node=16,
                          submit_overhead=0.0)
        jobs = parse_swf(SAMPLE.splitlines())
        SwfReplay(sim, cluster, jobs, time_scale=0.5).start()
        sim.run(until=35)
        # job 2 (submit 60) arrives at t=30 under 0.5x
        assert cluster.completed_jobs + len(cluster._run_mirror.entries) >= 2

    def test_oversized_jobs_clipped(self):
        sim = Simulation(seed=0)
        cluster = Cluster(sim, "tiny", nodes=1, cores_per_node=8,
                          submit_overhead=0.0)
        jobs = [SwfJob(1, 0.0, 100.0, 512, 200.0, "u")]
        SwfReplay(sim, cluster, jobs).start()
        sim.run()
        assert cluster.completed_jobs == 1

    def test_validation(self):
        sim = Simulation(seed=0)
        cluster = Cluster(sim, "c", nodes=1, cores_per_node=8)
        with pytest.raises(ValueError):
            SwfReplay(sim, cluster, [], time_scale=0)
        sim.call_in(1, lambda: None)
        sim.run()
        with pytest.raises(RuntimeError):
            SwfReplay(sim, cluster, []).start()


class TestExport:
    def test_roundtrip_through_export(self):
        sim = Simulation(seed=0)
        cluster = Cluster(sim, "c", nodes=4, cores_per_node=16,
                          submit_overhead=0.0)
        finished = []
        cluster.add_listener(
            lambda j, old, new: finished.append(j)
            if new is JobState.COMPLETED else None
        )
        for cores, runtime in ((8, 100), (16, 200)):
            cluster.submit(BatchJob(cores=cores, runtime=runtime,
                                    walltime=runtime * 2))
        sim.run()
        text = export_swf(finished)
        reparsed = parse_swf(text.splitlines())
        assert len(reparsed) == 2
        assert {j.processors for j in reparsed} == {8, 16}
        assert {j.run_time for j in reparsed} == {100.0, 200.0}
