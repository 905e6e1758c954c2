"""``RawDraws`` gives what numpy's ``Generator`` gives, draw for draw.

Each test starts a helper and a reference generator from one seed, makes
the same calls on both in a random interleaving, and requires identical
values, identical value types and the same bit-generator state
(``RawDraws.state()`` folds in the 32-bit half the helper buffers).
The five draws are the sampler's: ``random``, ``uniform`` (computed on
``random`` as the sampler computes it), ``lognormal``, ``exponential``
and ``integers``. ``integers(n)`` is compared with
``int(Generator.integers(n))``, the form the job sampler uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.workload import RawDraws

#: bounds for integers(n): no draw at 1, 2**31 + 1 rejects about half of
#: its draws, 2**32 takes the 32-bit draw as it is.
BOUNDS = (1, 2, 3, 24, 64, 2**31 + 1, 2**32 - 1, 2**32)

_draws = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(
        st.just("lognormal"),
        st.floats(-5.0, 12.0),
        st.floats(0.0, 3.0),
    ),
    st.tuples(st.just("exponential"), st.floats(0.0, 1e6)),
    st.tuples(st.just("integers"), st.sampled_from(BOUNDS)),
    st.tuples(st.just("uniform"), st.floats(-10.0, 10.0), st.floats(0.0, 5.0)),
)


def _call(draws, reference, op):
    name, *args = op
    if name == "uniform":
        # the sampler's uniform(a, b): a + (b - a) * random()
        a, span = args
        b = a + span
        return a + (b - a) * draws.random(), reference.uniform(a, b)
    got = getattr(draws, name)(*args)
    want = getattr(reference, name)(*args)
    if name == "integers":
        want = int(want)
    return got, want


def _assert_same(seed, ops):
    draws = RawDraws(np.random.default_rng(seed))
    reference = np.random.default_rng(seed)
    for op in ops:
        got, want = _call(draws, reference, op)
        assert got == want, op
        assert type(got) is type(want), op
        assert draws.state() == reference.bit_generator.state, op


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(_draws, min_size=1, max_size=60),
)
def test_interleaved_draws_match_numpy(seed, ops):
    _assert_same(seed, ops)


@pytest.mark.parametrize("n", BOUNDS)
def test_integers_match_numpy(n):
    draws = RawDraws(np.random.default_rng(n))
    reference = np.random.default_rng(n)
    for _ in range(2000):
        got, want = draws.integers(n), int(reference.integers(n))
        assert got == want and type(got) is int
    assert draws.state() == reference.bit_generator.state


def test_half_rejecting_bound_redraws():
    # 2**31 + 1 rejects a 32-bit draw with probability about 1/2, so 300
    # values take about 600 halves; the helper must redraw as numpy does.
    n = 2**31 + 1
    _assert_same(5, [("integers", n)] * 300)
    reference = np.random.default_rng(5)
    for _ in range(300):
        reference.integers(n)
    after = reference.bit_generator.state
    stepper = np.random.PCG64(5)
    outputs = 0
    while stepper.state["state"] != after["state"]:
        stepper.random_raw()
        outputs += 1
    assert 2 * outputs - after["has_uint32"] > 450


def test_integers_of_one_draw_nothing():
    draws = RawDraws(np.random.default_rng(1))
    before = draws.state()
    assert [draws.integers(1) for _ in range(5)] == [0] * 5
    assert draws.state() == before


def test_pending_half_is_taken_from_the_stream():
    stream = np.random.default_rng(9)
    reference = np.random.default_rng(9)
    stream.integers(24)
    reference.integers(24)
    assert stream.bit_generator.state["has_uint32"] == 1
    draws = RawDraws(stream)
    assert draws.state() == reference.bit_generator.state
    # the pending half serves the next 32-bit draw, and the one after
    # starts a new raw output
    for _ in range(3):
        assert draws.integers(24) == int(reference.integers(24))
    assert draws.random() == reference.random()
    assert draws.state() == reference.bit_generator.state


def test_non_pcg64_stream_rejected():
    with pytest.raises(TypeError, match="PCG64"):
        RawDraws(np.random.Generator(np.random.MT19937(0)))
