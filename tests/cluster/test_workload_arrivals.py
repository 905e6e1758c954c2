"""The arrival stream queues exactly what the process-based loop queued.

``BackgroundWorkload.start`` hands a lazy stream of accepted arrivals to
its cluster, which queues each job in one kernel event
(``Cluster._arrive``) at its arrival plus the submit overhead. The
reference below is the loop it replaced, copied verbatim: a
``workload/{name}`` process sleeping on a timeout per candidate and
submitting each accepted job through ``Cluster.submit``. Both run from
generators in the same state; the queued jobs, the machine's history and
the generator's position (the workload's ``draws.state()``) must agree
exactly.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Cluster, JobState
from repro.cluster.presets import PRESETS
from repro.cluster.workload import BackgroundWorkload
from repro.des import Simulation

HOURS = 48 * 3600.0


class _ProcessWorkload(BackgroundWorkload):
    """The process-based arrival loop the event stream replaced."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._stopped = False

    def start(self) -> None:
        """Begin the arrival process (runs until stop() or end of sim)."""
        self.sim.process(self._arrivals(), name=f"workload/{self.cluster.name}")

    def stop(self) -> None:
        self._stopped = True

    def _arrivals(self):
        # Thinning algorithm for the non-homogeneous Poisson process.
        rate_max = self.base_rate * (1 + self.profile.diurnal_amplitude)
        scale = 1.0 / rate_max
        while not self._stopped:
            yield self.sim.timeout(self.rng.exponential(scale))
            if self._stopped:
                return
            if self.rng.random() <= self.rate_at(self.sim.now) / rate_max:
                self.cluster.submit(self.make_job())
                self.submitted += 1


class _Recording:
    """A generator wrapper that counts candidates (exponential gaps) and
    notes the bit-generator state after the first ``random()`` of each
    simulated instant: in the reference, that is the thinning uniform,
    drawn before any job draw of its instant."""

    def __init__(self, sim, rng) -> None:
        self._sim = sim
        self._rng = rng
        self.bit_generator = rng.bit_generator
        self.candidates = 0
        self.after_uniform = {}

    def exponential(self, scale):
        self.candidates += 1
        return self._rng.exponential(scale)

    def random(self):
        value = self._rng.random()
        self.after_uniform.setdefault(self._sim.now, self.bit_generator.state)
        return value

    def lognormal(self, mean, sigma):
        return self._rng.lognormal(mean, sigma)

    def integers(self, high):
        return self._rng.integers(high)


class _CountingDraws:
    """Stands in for a workload's draws to count the arrival stream's
    candidates (its exponential gaps)."""

    def __init__(self, draws) -> None:
        self._draws = draws
        self.candidates = 0

    def exponential(self, scale):
        self.candidates += 1
        return self._draws.exponential(scale)


class _FoldedState:
    """What a ``_Recording`` reads as its bit generator once the workload
    is built: the state with the workload's buffered 32-bit half folded
    in (``draws.state()``), since job draws go through ``draws``."""

    def __init__(self, draws) -> None:
        self._draws = draws

    @property
    def state(self):
        return self._draws.state()


def _machine(cls, preset, seed):
    """A primed preset machine whose workload draws from ``seed``; the
    returned list collects every job it queues, as queued."""
    sim = Simulation(seed=0)
    cluster = Cluster(
        sim, name=preset.name, nodes=preset.nodes,
        cores_per_node=preset.cores_per_node,
        scheduler=preset.scheduler_factory(),
        submit_overhead=preset.submit_overhead,
        dispatch_interval=preset.dispatch_interval,
    )
    stream = _Recording(sim, np.random.default_rng(seed))
    wl = cls(sim, cluster, preset.profile, stream=stream)
    stream.bit_generator = _FoldedState(wl.draws)
    queued = []

    def on_transition(job, old, new):
        if new is JobState.PENDING:
            queued.append(
                (job.submit_time, job.cores, job.runtime, job.walltime,
                 job.user)
            )

    cluster.add_listener(on_transition)
    wl.prime(backlog_hours=preset.backlog_hours)
    return sim, cluster, wl, queued


def _drawn_arrivals(wl):
    """Record every arrival instant the stream hands its cluster."""
    drawn = []
    pull = wl.next_arrival

    def next_arrival():
        drawn.append(pull())
        return drawn[-1]

    wl.next_arrival = next_arrival
    return drawn


_FLAT = replace(
    PRESETS["stampede-sim"], name="flat-sim",
    profile=replace(PRESETS["stampede-sim"].profile, diurnal_amplitude=0.0),
)
CASES = {**PRESETS, _FLAT.name: _FLAT}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_matches_process_loop(name):
    preset = CASES[name]
    sim, cluster, wl, queued = _machine(BackgroundWorkload, preset, 2016)
    rsim, rcluster, ref, rqueued = _machine(_ProcessWorkload, preset, 2016)
    drawn = _drawn_arrivals(wl)
    for s, w in ((sim, wl), (rsim, ref)):
        w.start()
        s.run(until=HOURS)

    assert wl.submitted > 100
    assert queued == rqueued
    assert (wl.submitted, cluster.completed_jobs, cluster.killed_jobs) == (
        ref.submitted, rcluster.completed_jobs, rcluster.killed_jobs,
    )
    # The stream has drawn through the thinning uniform of its pending
    # arrival: where the reference's generator stands once its process
    # accepts that arrival.
    pending = drawn[-1]
    assert pending + preset.submit_overhead > HOURS
    rsim.run(until=max(HOURS, pending))
    assert wl.draws.state() == ref.rng.after_uniform[pending]


@pytest.mark.parametrize("diurnal", [0.0, 0.3])
def test_one_event_per_queued_job(diurnal):
    """Only a queued job costs a kernel event: no process resumption, no
    timeout, no submit hop, and nothing for a rejected candidate."""
    preset = replace(
        PRESETS["stampede-sim"],
        profile=replace(PRESETS["stampede-sim"].profile,
                        diurnal_amplitude=diurnal),
    )
    sim, cluster, wl, queued = _machine(BackgroundWorkload, preset, 5)
    prof = sim.telemetry.attach_profiler()
    counting = wl.draws = _CountingDraws(wl.draws)
    wl.start()
    sim.run(until=HOURS)

    assert prof.by_label["Cluster._arrive"][0] == wl.submitted > 100
    # prime() still submits through Cluster.submit
    primed = len(queued) - wl.submitted
    assert prof.by_label["Cluster._enqueue"][0] == primed > 0
    assert set(prof.by_label) == {
        "Cluster._arrive", "Cluster._enqueue", "Cluster._dispatch",
        "Cluster._finish",
    }
    # every candidate drawn was queued, pending or rejected
    rejected = counting.candidates - wl.submitted - 1
    assert rejected > 100 if diurnal else rejected == 0


def test_stop_matches_process_loop():
    """After stop() at s both queue the same jobs: those that arrived by
    s, including any whose submit overhead ends after s."""
    preset = PRESETS["comet-sim"]
    stop_at = 6 * 3600.0
    sim, _, wl, queued = _machine(BackgroundWorkload, preset, 9)
    rsim, _, ref, rqueued = _machine(_ProcessWorkload, preset, 9)
    for s, w in ((sim, wl), (rsim, ref)):
        w.start()
        s.run(until=stop_at)
        w.stop()
        s.run(until=HOURS)
    assert queued == rqueued
    assert wl.submitted == ref.submitted > 0
