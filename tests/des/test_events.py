"""Unit tests for the kernel's event heap.

A scheduled event is its heap entry ``[time, priority, seq, callback,
args]``. Every test drives the heap through ``Simulation.call_at``,
``call_in``, ``cancel`` and ``run``, so what is checked here is the
push, cancel and dispatch that campaigns run. The ``kernel.*`` gauges
are read where the tests count events: they enter telemetry digests.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.errors import SchedulingError
from repro.des.kernel import _COMPACT_MIN, Simulation


def _noop() -> None:  # events need a callback; ordering ignores it
    pass


def _gauge(sim: Simulation, name: str):
    return sim.telemetry.metrics.gauge(f"kernel.{name}").read()


def _check_heap(sim: Simulation) -> None:
    """The kernel's counters agree with the entries its heap holds."""
    heap = sim._heap
    dead = sum(entry[3] is None for entry in heap)
    assert sim._cancelled == dead
    assert _gauge(sim, "heap-size") == len(heap) - dead
    assert _gauge(sim, "events-popped") == sim.events_processed


def _push_all(sim, times, priority=0):
    """Schedule one recording event per time; return (handles, fired)."""
    fired = []
    handles = [
        sim.call_at(t, lambda i: fired.append((sim.now, i)), i,
                    priority=priority)
        for i, t in enumerate(times)
    ]
    return handles, fired


def test_push_pop_orders_by_time():
    sim = Simulation()
    _, fired = _push_all(sim, [5.0, 1.0, 9.0])
    sim.run()
    assert fired == [(1.0, 1), (5.0, 0), (9.0, 2)]
    assert sim.now == 9.0


def test_same_time_fifo_tiebreak():
    sim = Simulation()
    _, fired = _push_all(sim, [3.0] * 10)
    sim.run()
    assert [i for _, i in fired] == list(range(10))


def test_priority_breaks_ties_before_sequence():
    sim = Simulation()
    order = []
    sim.call_at(1.0, order.append, "low", priority=10)
    sim.call_at(1.0, order.append, "high", priority=0)
    sim.run()
    assert order == ["high", "low"]


def test_cancel_removes_from_live_count():
    sim = Simulation()
    ev = sim.call_at(1.0, _noop)
    assert _gauge(sim, "heap-size") == 1
    sim.cancel(ev)
    assert _gauge(sim, "heap-size") == 0
    # double cancel is a no-op
    sim.cancel(ev)
    assert _gauge(sim, "heap-size") == 0
    assert _gauge(sim, "events-cancelled") == 1


def test_cancelled_event_skipped_by_pop():
    sim = Simulation()
    handles, fired = _push_all(sim, [1.0, 2.0])
    sim.cancel(handles[0])
    sim.run()
    assert fired == [(2.0, 1)]
    _check_heap(sim)


def test_run_until_skips_cancelled_head_and_keeps_later_events():
    sim = Simulation()
    handles, fired = _push_all(sim, [1.0, 4.0])
    sim.cancel(handles[0])
    assert sim.run(until=3.0) == 3.0
    assert fired == []
    assert _gauge(sim, "heap-size") == 1 and len(sim._heap) == 1
    _check_heap(sim)  # the cancelled head was dropped, and counted so
    sim.run(until=4.0)
    assert fired == [(4.0, 1)]


def test_run_until_on_empty_heap_advances_clock():
    sim = Simulation()
    assert sim.run() == 0.0
    assert sim.run(until=5.0) == 5.0
    assert sim.events_processed == 0 and _gauge(sim, "events-popped") == 0


def test_nan_time_rejected():
    sim = Simulation()
    with pytest.raises(SchedulingError, match="NaN"):
        sim.call_at(float("nan"), _noop)
    with pytest.raises(SchedulingError, match="NaN"):
        sim.call_in(float("nan"), _noop)
    with pytest.raises(SchedulingError, match="NaN"):
        sim.timeout(float("nan"))
    assert _gauge(sim, "events-pushed") == 0 and sim._heap == []


def test_orders_by_time_priority_seq():
    sim = Simulation()
    handles, fired = [], []
    for time, priority in ((5.0, 0), (1.0, 0), (5.0, -1), (1.0, 0)):
        handles.append(
            sim.call_at(time, fired.append, len(handles), priority=priority)
        )
    sim.run()
    got = [tuple(handles[i][:3]) for i in fired]
    # time first, then priority, then seq FIFO on full ties
    assert got == [(1.0, 0, 1), (1.0, 0, 3), (5.0, -1, 2), (5.0, 0, 0)]
    assert _gauge(sim, "heap-size") == 0


def test_nan_rejected_inf_allowed():
    sim = Simulation()
    with pytest.raises(SchedulingError):
        sim.call_at(float("nan"), _noop)
    with pytest.raises(SchedulingError):
        sim.call_at(float("-inf"), _noop)  # before now
    _, fired = _push_all(sim, [float("inf"), 0.0])
    sim.run()
    assert fired == [(0.0, 1), (float("inf"), 0)]


def test_len_counts_live_only():
    sim = Simulation()
    a = sim.call_at(1.0, _noop)
    sim.call_at(2.0, _noop)
    sim.cancel(a)
    assert _gauge(sim, "heap-size") == 1 and len(sim._heap) == 2
    sim.run()
    assert _gauge(sim, "heap-size") == 0
    assert _gauge(sim, "events-pushed") == 2
    assert _gauge(sim, "events-cancelled") == 1
    assert _gauge(sim, "events-popped") == 1


# -- dispatch order against a reference model (hypothesis) --------------------

#: what an event does when it fires (the children it pushes do nothing):
#: push one child, cancel any handle, or push a burst of children and
#: then cancel two of every three handles, which compacts the heap the
#: dispatch loop is holding.
_ACTIONS = (None, None, "push", "cancel", "burst")

#: children one burst pushes; enough to reach the compaction floor alone.
_BURST = _COMPACT_MIN


def _act(queue, action, arg):
    """Run ``action`` on ``queue`` (the kernel or the model) at its now."""
    if action == "push":
        queue.push(queue.now + arg % 4, arg % 3 - 1, None, 0)
    elif action == "cancel":
        queue.cancel(arg % queue.pushed)
    elif action == "burst":
        for k in range(_BURST):
            queue.push(queue.now + k % 5, k % 3 - 1, None, 0)
        for i in range(queue.pushed):
            if (i + arg) % 3:
                queue.cancel(i)


class _Model:
    """Reference model: live events by handle index, the least fired first."""

    def __init__(self) -> None:
        self.now = 0.0
        self.pushed = 0
        self.cancels = 0
        self.live = {}  # handle index == seq -> (time, priority, seq, ...)
        self.fired = []

    def push(self, time, priority, action, arg):
        self.live[self.pushed] = (time, priority, self.pushed, action, arg)
        self.pushed += 1

    def cancel(self, i):
        if self.live.pop(i, None) is not None:
            self.cancels += 1

    def run(self, until=None):
        while self.live:
            time, _, seq, action, arg = min(self.live.values())
            if until is not None and time > until:
                break
            del self.live[seq]
            self.now = time
            self.fired.append((time, seq))
            _act(self, action, arg)
        if until is not None:
            self.now = until


class _Kernel:
    """The same interface over a :class:`Simulation`."""

    def __init__(self) -> None:
        self.sim = Simulation()
        self.handles = []
        self.fired = []

    @property
    def now(self):
        return self.sim.now

    @property
    def pushed(self):
        return len(self.handles)

    def push(self, time, priority, action, arg):
        self.handles.append(self.sim.call_at(
            time, self._fire, len(self.handles), action, arg,
            priority=priority,
        ))

    def cancel(self, i):
        sim = self.sim
        cancels = sim._cancels
        sim.cancel(self.handles[i])
        if sim._cancels > cancels:
            # dead entries never outnumber live ones on a big heap
            assert sim._cancelled <= sim._live or (
                len(sim._heap) < _COMPACT_MIN
            )

    def _fire(self, i, action, arg):
        self.fired.append((self.sim.now, i))
        _act(self, action, arg)

    def run(self, until=None):
        self.sim.run(until=until)


def _check_against(kernel: _Kernel, model: _Model) -> None:
    sim = kernel.sim
    assert kernel.fired == model.fired
    assert sim.now == model.now
    assert all(kernel.handles[i][2] == i for i in range(kernel.pushed))
    assert _gauge(sim, "events-pushed") == model.pushed
    assert _gauge(sim, "heap-size") == len(model.live)
    assert _gauge(sim, "events-cancelled") == model.cancels
    assert _gauge(sim, "events-popped") == len(model.fired)
    _check_heap(sim)


# Times on a coarse grid => heavy ties; priorities collide too; ``until``
# moves in half steps, so it falls on event times and between them.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(0, 12),  # delay from now on the grid
            st.integers(-1, 1),  # priority
            st.sampled_from(_ACTIONS),
            st.integers(0, 40),  # the action's argument
        ),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("run"), st.integers(0, 12)),  # half steps
    ),
    min_size=1,
    max_size=80,
)


@given(ops=_ops)
@settings(max_examples=300, deadline=None)
def test_property_pops_match_reference_model(ops):
    """Any push/cancel/run interleaving, with callbacks that push and
    cancel (mass cancels included), dispatches what a sorted list would."""
    kernel, model = _Kernel(), _Model()
    for op, *params in ops:
        for queue in (kernel, model):
            if op == "push":
                delay, priority, action, arg = params
                queue.push(queue.now + delay, priority, action, arg)
            elif op == "cancel" and queue.pushed:
                # may hit live, fired or cancelled events: all legal
                queue.cancel(params[0] % queue.pushed)
            elif op == "run":
                queue.run(until=queue.now + params[0] / 2)
        _check_against(kernel, model)
    kernel.run()
    model.run()
    _check_against(kernel, model)
    assert not model.live


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
    sim = Simulation()
    _, fired = _push_all(sim, times)
    sim.run()
    assert [t for t, _ in fired] == sorted(times)


# -- fired entries and lazy cancellation bounds (compaction) ------------------


def test_cancel_after_fire_is_noop():
    sim = Simulation()
    handles, fired = _push_all(sim, [1.0, 2.0])
    sim.run(until=1.5)
    ev = handles[0]
    assert fired == [(1.0, 0)] and tuple(ev[:3]) == (1.0, 0, 0)
    assert ev[3] is None and ev[4] == ()
    sim.cancel(ev)  # fired events must not perturb the live count
    assert _gauge(sim, "heap-size") == 1
    assert _gauge(sim, "events-cancelled") == 0
    sim.run()
    assert fired == [(1.0, 0), (2.0, 1)]
    assert _gauge(sim, "heap-size") == 0


def test_cancelled_entry_drops_callback_and_args():
    sim = Simulation()
    ev = sim.call_at(1.0, print, "x")
    sim.cancel(ev)
    assert ev[3] is None and ev[4] == ()
    assert _gauge(sim, "events-cancelled") == 1


def test_kernel_fired_entry_holds_nothing_and_ignores_cancel():
    """Dispatch marks the entry fired before the call: the handle keeps
    neither callback nor args, and cancelling it afterwards is a no-op."""
    sim = Simulation()
    seen = []
    held = []
    ev = sim.call_at(1.0, lambda tag: held.append((ev[3], ev[4], tag)), "x")
    sim.call_at(2.0, seen.append, "y")
    sim.run(until=1.5)
    assert held == [(None, (), "x")]
    assert ev[3] is None and ev[4] == ()
    sim.cancel(ev)
    assert ev[3] is None
    assert _gauge(sim, "heap-size") == 1
    assert _gauge(sim, "events-cancelled") == 0
    sim.run()
    assert seen == ["y"] and _gauge(sim, "events-popped") == 2


def test_compaction_bounds_cancelled_backlog():
    sim = Simulation()
    handles, fired = _push_all(sim, [float(i) for i in range(200)])
    for ev in handles[:150]:
        sim.cancel(ev)
        # Invariant: dead entries never outnumber live ones on a big
        # heap, so retention is bounded at 2x the live count.
        assert sim._cancelled <= max(sim._live, 32)
    assert _gauge(sim, "heap-size") == 50
    assert len(sim._heap) <= 2 * 50
    # Dispatch fires every live event exactly once, in order.
    sim.run()
    assert fired == [(float(i), i) for i in range(150, 200)]
    _check_heap(sim)


def test_small_heaps_never_compact():
    sim = Simulation()
    handles, fired = _push_all(sim, [float(i) for i in range(10)])
    for ev in handles[:9]:
        sim.cancel(ev)
    # Below the compaction floor dead entries drain lazily on dispatch.
    assert len(sim._heap) == 10
    assert _gauge(sim, "heap-size") == 1
    sim.run()
    assert fired == [(9.0, 9)]
    assert sim._heap == [] and sim._cancelled == 0


def test_compaction_preserves_pop_order():
    rng = random.Random(42)
    sim = Simulation()
    fired = []
    handles = [
        sim.call_at(
            float(rng.choice([1, 2, 3, 5, 8])), fired.append, i,
            priority=rng.choice([0, 1]),
        )
        for i in range(500)
    ]
    cancelled = set(rng.sample(range(500), 430))
    for i in cancelled:
        sim.cancel(handles[i])  # triggers at least one compaction
    assert len(sim._heap) < 500
    expected = sorted(
        (i for i in range(500) if i not in cancelled),
        key=lambda i: handles[i][:3],
    )
    sim.run()
    assert fired == expected
