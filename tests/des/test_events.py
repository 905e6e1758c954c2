"""Unit tests for the event queue.

A pushed event is its heap entry ``[time, priority, seq, callback,
args]``; ``pop`` returns the tuple of what the fired entry held.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.errors import SchedulingError
from repro.des.events import _FIRED, EventQueue
from repro.des.kernel import Simulation


def _noop() -> None:  # events need a callback; ordering ignores it
    pass


def test_push_pop_orders_by_time():
    q = EventQueue()
    fired = []
    q.push(5.0, fired.append, ("b",))
    q.push(1.0, fired.append, ("a",))
    q.push(9.0, fired.append, ("c",))
    times = []
    while q:
        time, _, _, callback, args = q.pop()
        times.append(time)
        callback(*args)
    assert times == [1.0, 5.0, 9.0]
    assert fired == ["a", "b", "c"]


def test_same_time_fifo_tiebreak():
    q = EventQueue()
    order = []
    for i in range(10):
        q.push(3.0, order.append, (i,))
    while q:
        _, _, _, callback, args = q.pop()
        callback(*args)
    assert order == list(range(10))


def test_priority_breaks_ties_before_sequence():
    q = EventQueue()
    order = []
    q.push(1.0, order.append, ("low",), priority=10)
    q.push(1.0, order.append, ("high",), priority=0)
    while q:
        _, _, _, callback, args = q.pop()
        callback(*args)
    assert order == ["high", "low"]


def test_cancel_removes_from_live_count():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    assert len(q) == 1
    q.cancel(ev)
    assert len(q) == 0
    assert not q
    # double cancel is a no-op
    q.cancel(ev)
    assert len(q) == 0


def test_cancelled_event_skipped_by_pop():
    q = EventQueue()
    ev1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.cancel(ev1)
    assert q.pop()[0] == 2.0


def test_pop_until_skips_cancelled_head_and_keeps_later_events():
    q = EventQueue()
    ev1 = q.push(1.0, lambda: None)
    q.push(4.0, lambda: None)
    q.cancel(ev1)
    assert q.pop_until(3.0) is None
    assert len(q) == 1
    assert q.pop_until(4.0)[0] == 4.0


def test_pop_until_empty_returns_none():
    assert EventQueue().pop_until(float("inf")) is None


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        EventQueue().pop()


def test_nan_time_rejected():
    with pytest.raises(SchedulingError):
        EventQueue().push(float("nan"), lambda: None)


def test_orders_by_time_priority_seq():
    q = EventQueue()
    q.push(5.0, _noop)
    q.push(1.0, _noop)
    q.push(5.0, _noop, priority=-1)
    q.push(1.0, _noop)
    got = [q.pop()[:3] for _ in range(4)]
    # time first, then priority, then seq FIFO on full ties
    assert got == [(1.0, 0, 1), (1.0, 0, 3), (5.0, -1, 2), (5.0, 0, 0)]
    assert len(q) == 0


def test_nan_rejected_inf_allowed():
    q = EventQueue()
    with pytest.raises(SchedulingError):
        q.push(float("nan"), _noop)
    q.push(float("inf"), _noop)
    q.push(float("-inf"), _noop)
    q.push(0.0, _noop)
    assert [q.pop()[0] for _ in range(3)] == [float("-inf"), 0.0, float("inf")]


def test_len_counts_live_only():
    q = EventQueue()
    a = q.push(1.0, _noop)
    q.push(2.0, _noop)
    q.cancel(a)
    assert len(q) == 1 and bool(q)
    q.pop()
    assert len(q) == 0 and not bool(q)


# -- pop order against a reference model (hypothesis) -------------------------

# Times drawn from a tiny grid => heavy ties; priorities collide too.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(0, 12),  # time on a coarse grid
            st.integers(-1, 1),  # priority
        ),
        st.tuples(st.just("pop"), st.just(0), st.just(0)),
        st.tuples(
            st.just("cancel"),
            st.integers(0, 40),  # index into pushed handles (mod len)
            st.just(0),
        ),
    ),
    min_size=1,
    max_size=80,
)


@given(ops=_ops)
@settings(max_examples=300, deadline=None)
def test_property_pops_match_reference_model(ops):
    """Any push/cancel/pop interleaving pops what a sorted list would."""
    q = EventQueue()
    handles = []
    model = {}  # seq -> (time, priority, seq) of live events
    for op, a, b in ops:
        if op == "push":
            ev = q.push(float(a), _noop, (), b)
            handles.append(ev)
            model[ev[2]] = tuple(ev[:3])
        elif op == "cancel" and handles:
            # may hit live, fired, or already-cancelled events: all legal
            ev = handles[a % len(handles)]
            q.cancel(ev)
            model.pop(ev[2], None)
        elif op == "pop":
            ev = q.pop_until(float("inf"))
            expect = min(model.values(), default=None)
            assert (None if ev is None else ev[:3]) == expect
            if expect is not None:
                del model[expect[2]]
        assert len(q) == len(model)
    drained = []
    while q:
        drained.append(q.pop()[:3])
    assert drained == sorted(model.values())


@given(
    times=st.lists(
        st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=120,
    )
)
@settings(max_examples=200, deadline=None)
def test_property_float_times_pop_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, _noop)
    assert [q.pop()[0] for _ in range(len(times))] == sorted(times)


# -- lazy cancellation bounds (compaction) ------------------------------------


def test_cancel_after_fire_is_noop():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    popped = q.pop()
    assert popped[:3] == (1.0, 0, 0)
    assert ev[3] is _FIRED and ev[4] == ()
    q.cancel(ev)  # fired events must not perturb the live count
    assert len(q) == 1 and bool(q)
    assert q.pop()[0] == 2.0
    assert len(q) == 0 and not q


def test_cancelled_entry_drops_callback_and_args():
    q = EventQueue()
    ev = q.push(1.0, print, ("x",))
    q.cancel(ev)
    assert ev[3] is None and ev[4] == ()
    assert q.cancels == 1


def test_kernel_fired_entry_holds_nothing_and_ignores_cancel():
    """Dispatch marks the entry fired before the call: the handle keeps
    neither callback nor args, and cancelling it afterwards is a no-op."""
    sim = Simulation()
    seen = []
    held = []
    ev = sim.call_at(1.0, lambda tag: held.append((ev[3], ev[4], tag)), "x")
    sim.call_at(2.0, seen.append, "y")
    sim.run(until=1.5)
    assert held == [(_FIRED, (), "x")]
    assert ev[3] is _FIRED and ev[4] == ()
    sim.cancel(ev)
    assert ev[3] is _FIRED
    assert len(sim._queue) == 1 and sim._queue.cancels == 0
    sim.run()
    assert seen == ["y"] and sim._queue.popped == 2


def test_compaction_bounds_cancelled_backlog():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(200)]
    for ev in events[:150]:
        q.cancel(ev)
        # Invariant: dead entries never outnumber live ones on a big
        # heap, so retention is bounded at 2x the live count.
        assert q._cancelled <= max(len(q), 32)
    assert len(q) == 50
    assert len(q._heap) <= 2 * len(q)
    # Draining pops every live event exactly once, in order.
    times = []
    while q:
        times.append(q.pop()[0])
    assert times == [float(i) for i in range(150, 200)]


def test_small_heaps_never_compact():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(10)]
    for ev in events[:9]:
        q.cancel(ev)
    # Below the compaction floor dead entries drain lazily on pop.
    assert len(q._heap) == 10
    assert len(q) == 1
    assert q.pop()[0] == 9.0


def test_compaction_preserves_pop_order():
    import random

    rng = random.Random(42)
    q = EventQueue()
    handles = []
    for i in range(500):
        handles.append(
            q.push(float(rng.choice([1, 2, 3, 5, 8])), lambda: None, (),
                   priority=rng.choice([0, 1]))
        )
    cancelled = set(rng.sample(range(500), 430))
    for i in cancelled:
        q.cancel(handles[i])  # triggers at least one compaction
    expected = sorted(
        (ev for i, ev in enumerate(handles) if i not in cancelled),
        key=lambda e: e[:3],
    )
    popped = []
    while q:
        popped.append(q.pop()[:3])
    assert popped == [tuple(e[:3]) for e in expected]
