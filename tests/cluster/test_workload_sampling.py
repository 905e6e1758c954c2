"""Background job sampling is bit-identical to the numpy calls it replaced.

``BackgroundWorkload.draw_job`` computes the weighted core choice, the
runtime clip and the overestimate factor in Python on the generator's
uniform draws. The reference below is the numpy sampler it replaced,
copied verbatim; every test drives both from generators in the same
state and requires identical values, identical value types and the same
final bit-generator state (the workload's ``draws.state()``, which folds
in the 32-bit half its draws hold).
"""

import math
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, FcfsScheduler
from repro.cluster.presets import PRESETS
from repro.cluster.workload import BackgroundWorkload, WorkloadProfile
from repro.des import Simulation

N_JOBS = 10_000


class _NumpyDraws:
    """The numpy job sampler ``draw_job`` replaced (the reference)."""

    def __init__(
        self,
        rng: np.random.Generator,
        profile: WorkloadProfile,
        max_cores: int,
    ) -> None:
        self.rng = rng
        self.profile = profile
        self.max_cores = max_cores
        # Pre-converted sampling arrays: job() runs thousands of times
        # per repetition and the list->ndarray conversion dominated it.
        self._choices = np.asarray(profile.core_choices)
        self._weights = np.asarray(profile.core_weights)

    def job(self) -> Tuple[int, float, float, int]:
        """One job draw: (cores, runtime, walltime, user index)."""
        rng = self.rng
        p = self.profile
        cores = int(rng.choice(self._choices, p=self._weights))
        if cores > self.max_cores:
            cores = self.max_cores
        runtime = float(
            np.clip(
                rng.lognormal(p.runtime_log_mean, p.runtime_log_sigma),
                p.runtime_min,
                p.runtime_max,
            )
        )
        if rng.random() < p.sloppy_request_fraction:
            walltime = p.walltime_limit
        else:
            factor = rng.uniform(p.overestimate_min, p.overestimate_max)
            walltime = min(runtime * factor, p.walltime_limit)
        if walltime < 60.0:
            walltime = 60.0
        user = int(rng.integers(p.n_users))
        return cores, runtime, walltime, user


def _workload(profile, seed, nodes, cores_per_node=16):
    sim = Simulation(seed=0)
    cluster = Cluster(
        sim, name="wl", nodes=nodes, cores_per_node=cores_per_node,
        scheduler=FcfsScheduler(),
    )
    return BackgroundWorkload(
        sim, cluster, profile, stream=np.random.default_rng(seed),
    )


def _assert_same_stream(profile, seed, nodes, n_jobs=N_JOBS):
    wl = _workload(profile, seed, nodes)
    ref = _NumpyDraws(np.random.default_rng(seed), profile, wl.max_cores)
    for _ in range(n_jobs):
        got, want = wl.draw_job(), ref.job()
        assert got == want
        assert tuple(map(type, got)) == tuple(map(type, want))
    assert wl.draws.state() == ref.rng.bit_generator.state


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_stream_matches_numpy(name):
    preset = PRESETS[name]
    _assert_same_stream(preset.profile, seed=2016, nodes=preset.nodes)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_core_clamp_matches_numpy(name):
    # a 64-core machine clamps every job of 128 cores or more
    _assert_same_stream(PRESETS[name].profile, seed=7, nodes=4)


@st.composite
def profiles(draw):
    n = draw(st.integers(1, 9))
    choices = draw(
        st.lists(st.integers(1, 2048), min_size=n, max_size=n)
    )
    raw = draw(
        st.lists(
            st.floats(0.0, 10.0, allow_subnormal=False),
            min_size=n, max_size=n,
        ).filter(lambda ws: sum(ws) > 0)
    )
    total = sum(raw)
    # int bounds and limits must come back as numpy's sampler typed them
    runtime_min = draw(st.one_of(st.integers(1, 600), st.floats(1.0, 600.0)))
    over_min = draw(st.floats(0.5, 3.0))
    return WorkloadProfile(
        core_choices=tuple(choices),
        core_weights=tuple(w / total for w in raw),
        runtime_log_mean=draw(st.floats(0.0, 12.0)),
        runtime_log_sigma=draw(st.floats(0.0, 3.0)),
        runtime_min=runtime_min,
        runtime_max=runtime_min + draw(st.floats(0.0, 2e5)),
        overestimate_min=over_min,
        overestimate_max=over_min + draw(st.floats(0.0, 4.0)),
        walltime_limit=draw(st.one_of(st.integers(60, 172800),
                                      st.floats(1.0, 172800.0))),
        sloppy_request_fraction=draw(st.floats(0.0, 1.0)),
        n_users=draw(st.integers(1, 64)),
    )


@settings(max_examples=10, deadline=None)
@given(
    profile=profiles(),
    seed=st.integers(0, 2**32 - 1),
    nodes=st.integers(1, 64),
)
def test_generated_profile_stream_matches_numpy(profile, seed, nodes):
    _assert_same_stream(profile, seed, nodes)


def test_residual_factor_matches_numpy_uniform():
    wl = _workload(WorkloadProfile(), seed=3, nodes=4)
    ref = np.random.default_rng(3)
    for _ in range(N_JOBS):
        got, want = wl.draw_residual(), ref.uniform(0.25, 1.0)
        assert got == want and type(got) is type(want)
    assert wl.draws.state() == ref.bit_generator.state


def test_kernel_stream_is_the_named_workload_stream():
    sim = Simulation(seed=11)
    cluster = Cluster(sim, name="stampede", nodes=4, cores_per_node=16)
    wl = BackgroundWorkload(sim, cluster, PRESETS["stampede-sim"].profile)
    assert wl.rng is sim.rng.get("workload/stampede")


def _primed_queue(seed):
    # build_resource without its start(): the primed queue only, no
    # arrival after t=0
    sim = Simulation(seed=seed)
    preset = PRESETS["stampede-sim"]
    cluster = Cluster(
        sim, name=preset.name, nodes=preset.nodes,
        cores_per_node=preset.cores_per_node,
        scheduler=preset.scheduler_factory(),
        submit_overhead=preset.submit_overhead,
        dispatch_interval=preset.dispatch_interval,
    )
    BackgroundWorkload(sim, cluster, preset.profile).prime(
        backlog_hours=preset.backlog_hours
    )
    sim.run(until=60.0)  # past the submit overhead and first dispatch
    return (
        cluster.queue_length,
        cluster.free_cores,
        [(j.cores, j.runtime, j.walltime) for j in cluster._pending],
        [(j.cores, j.runtime, j.walltime) for j, _ in cluster._run_mirror.items()],
    )


def test_same_seed_same_primed_queue():
    first = _primed_queue(2016)
    assert first[2] and first[3], "priming left no backlog or no fill"
    assert _primed_queue(2016) == first
    assert _primed_queue(2017) != first


# ---------------------------------------------------------------------------
# Profile validation: what numpy rejected at the first draw is now
# rejected when the profile is built.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "weights",
    [
        (1.2, -0.2),
        (0.5 + 5e-7, 0.5),
        (math.nan, 1.0),
        (math.inf, 1.0),
        (0.0, 0.0),
    ],
    ids=["negative", "sum-off-by-5e-7", "nan", "inf", "all-zero"],
)
def test_invalid_weights_rejected_at_construction(weights):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(np.asarray((1, 4)), p=weights)
    with pytest.raises(ValueError, match="core_weights"):
        WorkloadProfile(core_choices=(1, 4), core_weights=weights)


def test_weight_sum_within_numpy_tolerance_accepted():
    weights = (0.5 + 1e-9, 0.5)
    np.random.default_rng(0).choice(np.asarray((1, 4)), p=weights)
    WorkloadProfile(core_choices=(1, 4), core_weights=weights)


def test_inverted_overestimate_range_rejected_at_construction():
    with pytest.raises(ValueError):
        np.random.default_rng(0).uniform(3.0, 1.1)
    with pytest.raises(ValueError, match="overestimate"):
        WorkloadProfile(overestimate_min=3.0, overestimate_max=1.1)


@pytest.mark.parametrize("n_users", [0, -3, 2**32 + 1])
def test_user_count_outside_raw_draw_range_rejected_at_construction(n_users):
    if n_users <= 0:
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(n_users)
    with pytest.raises(ValueError, match="n_users"):
        WorkloadProfile(n_users=n_users)


def test_user_count_bounds_accepted():
    for n_users in (1, 2**32):
        WorkloadProfile(n_users=n_users)


@pytest.mark.parametrize("sigma", [-1.0, -0.0])
def test_negative_runtime_sigma_rejected_at_construction(sigma):
    with pytest.raises(ValueError):
        np.random.default_rng(0).lognormal(0.0, sigma)
    with pytest.raises(ValueError, match="runtime_log_sigma"):
        WorkloadProfile(runtime_log_sigma=sigma)
