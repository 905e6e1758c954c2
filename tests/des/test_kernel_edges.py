"""Edge-case tests for kernel semantics not covered elsewhere."""

import numpy as np
import pytest

from repro.des import Interrupt, Signal, Simulation, SimulationError


def test_run_is_not_reentrant():
    sim = Simulation()
    errors = []

    def evil():
        try:
            sim.run()
        except SimulationError as e:
            errors.append(str(e))

    sim.call_in(1.0, evil)
    sim.run()
    assert errors and "re-entrant" in errors[0]


def test_run_process_until_deadline():
    sim = Simulation()

    def slow():
        yield sim.timeout(1000)

    # external events keep the queue non-empty past the deadline
    for i in range(200):
        sim.call_in(float(i), lambda: None)
    p = sim.process(slow())
    with pytest.raises(SimulationError, match="did not finish"):
        sim.run_process(p, until=100.0)


def test_run_process_dispatches_every_event_at_exactly_until():
    """Events at ``until`` all run, including the one that finishes the
    process, even when another event at ``until`` is dispatched first."""
    sim = Simulation()
    sim.call_in(100.0, lambda: None)

    def proc():
        yield sim.timeout(100)
        return "done"

    assert sim.run_process(sim.process(proc()), until=100.0) == "done"
    assert sim.now == 100.0


def test_run_process_deadline_leaves_later_events_queued():
    """No event after ``until`` is dispatched; the clock stops at
    ``until`` and a later run picks the queue up where it stopped."""
    sim = Simulation()
    fired = []
    sim.call_in(50.0, fired.append, 50.0)

    def proc():
        yield sim.timeout(150)
        fired.append(sim.now)
        return "late"

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="did not finish by t=100.0"):
        sim.run_process(p, until=100.0)
    assert fired == [50.0] and sim.now == 100.0 and not p.triggered
    assert sim.run_process(p) == "late"
    assert fired == [50.0, 150.0]


def test_disabled_telemetry_records_nothing_during_simulation():
    sim = Simulation()
    sim.call_in(1.0, lambda: sim.telemetry.instant("c", "ev", track="e"))
    sim.run()
    assert sim.telemetry.instants == []
    sim.telemetry.enable()
    sim.call_in(1.0, lambda: sim.telemetry.instant("c", "ev", track="e"))
    sim.run()
    assert [(i["t"], i["name"]) for i in sim.telemetry.instants] == [
        (2.0, "ev")
    ]


def test_timeout_zero_fires_immediately_in_order():
    sim = Simulation()
    order = []

    def a():
        yield sim.timeout(0)
        order.append("a")

    def b():
        yield sim.timeout(0)
        order.append("b")

    sim.process(a())
    sim.process(b())
    sim.run()
    assert order == ["a", "b"]  # deterministic FIFO at equal time
    assert sim.now == 0.0


def test_deeply_chained_processes_do_not_recurse():
    """1000 already-triggered waits resume via the queue, not the stack."""
    sim = Simulation()
    done = []

    def chain(n):
        if n > 0:
            yield sim.process(chain(n - 1))
        done.append(n)
        return n

    sim.process(chain(1000))
    sim.run()
    assert len(done) == 1001
    assert done[0] == 0 and done[-1] == 1000


# -- seeded-random property tests ---------------------------------------------
#
# The fault-injection subsystem leans hard on three kernel guarantees:
# the clock never goes backwards, a canceled event never fires, and an
# interrupted process resumes exactly once with the Interrupt. These
# loops drive randomized interleavings of schedule/cancel/interrupt
# (seeded, so a failure is a reproducible counterexample).


@pytest.mark.parametrize("seed", range(8))
def test_random_schedule_cancel_interleaving(seed):
    rng = np.random.default_rng(seed)
    sim = Simulation()
    n = 200
    times = rng.uniform(0.0, 1000.0, size=n)
    fired = []
    events = [
        sim.call_at(float(t), lambda i=i: fired.append((i, sim.now)))
        for i, t in enumerate(times)
    ]
    # cancel a random subset up-front...
    canceled = set(int(i) for i in rng.choice(n, size=n // 4, replace=False))
    for i in canceled:
        sim.cancel(events[i])
    # ...and cancel some future events *from inside* the run
    live = [i for i in range(n) if i not in canceled]
    dynamic = [i for i in live if rng.random() < 0.2]
    for i in dynamic:
        cancel_at = float(rng.uniform(0.0, times[i]))
        if cancel_at < times[i]:  # strictly before: must not fire
            sim.call_at(cancel_at, sim.cancel, events[i])
            canceled.add(i)
    sim.run()

    fired_ids = [i for i, _ in fired]
    assert set(fired_ids) == set(range(n)) - canceled
    # each callback fired at its scheduled time, in non-decreasing order
    for i, t in fired:
        assert t == float(times[i])
    assert all(a <= b for (_, a), (_, b) in zip(fired, fired[1:]))
    # double-cancel (including of already-fired events) is harmless
    for ev in events:
        sim.cancel(ev)


@pytest.mark.parametrize("seed", range(8))
def test_random_interrupt_interleaving(seed):
    rng = np.random.default_rng(seed)
    sim = Simulation()
    n = 60
    sleeps = rng.uniform(10.0, 500.0, size=n)
    outcomes = {}

    def sleeper(i, duration):
        t0 = sim.now
        try:
            yield sim.timeout(duration)
            outcomes[i] = ("slept", sim.now - t0)
        except Interrupt as itr:
            outcomes[i] = ("interrupted", itr.cause)

    procs = [sim.process(sleeper(i, float(s))) for i, s in enumerate(sleeps)]
    interrupted = {}
    for i in range(n):
        if rng.random() < 0.5:
            at = float(rng.uniform(0.0, 600.0))
            interrupted[i] = at
            sim.call_at(
                at,
                lambda i=i: procs[i].interrupt(i) if procs[i].is_alive else None,
            )
    sim.run()

    assert set(outcomes) == set(range(n))  # every process finished
    assert all(p.triggered for p in procs)
    for i in range(n):
        kind, value = outcomes[i]
        hit = i in interrupted and interrupted[i] < sleeps[i]
        if kind == "interrupted":
            assert value == i  # the cause round-trips
            assert interrupted[i] <= sleeps[i]
        else:
            assert not hit or interrupted[i] == sleeps[i]
            assert value == float(sleeps[i])  # slept exactly as asked


@pytest.mark.parametrize("seed", range(4))
def test_random_interleaving_is_deterministic(seed):
    """The same seed drives byte-identical event sequences."""

    def run_once():
        rng = np.random.default_rng(seed)
        sim = Simulation()
        trail = []
        stop = [False]

        def actor(i):
            while not stop[0]:
                gap = float(rng.exponential(20.0))
                yield sim.timeout(gap)
                trail.append((i, sim.now))

        procs = [sim.process(actor(i)) for i in range(5)]
        sim.call_at(500.0, lambda: stop.__setitem__(0, True))
        for p in procs:
            sim.call_at(
                float(rng.uniform(100.0, 400.0)),
                lambda p=p: p.interrupt("chaos") if p.is_alive else None,
            )
        sim.run(until=1000.0)
        return trail

    assert run_once() == run_once()


def test_run_until_now_fires_due_events_only():
    sim = Simulation()
    fired = []
    sim.call_at(0.0, fired.append, "now")
    sim.call_at(1.0, fired.append, "later")
    end = sim.run(until=0.0)
    assert end == 0.0 and sim.now == 0.0
    assert fired == ["now"]
    sim.run()
    assert fired == ["now", "later"]


def test_run_until_past_raises():
    from repro.des.errors import SchedulingError

    sim = Simulation()
    sim.call_in(5.0, lambda: None)
    sim.run()
    assert sim.now == 5.0
    with pytest.raises(SchedulingError, match="cannot run until"):
        sim.run(until=1.0)


def test_run_process_deadlock_detected():
    sim = Simulation()

    def waiter():
        yield Signal(sim)  # nobody ever triggers it

    p = sim.process(waiter())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(p)


def test_cancel_after_fire_keeps_kernel_consistent():
    sim = Simulation()
    fired = []
    ev = sim.call_in(1.0, fired.append, "a")
    sim.call_in(2.0, fired.append, "b")
    sim.run(until=1.5)
    sim.cancel(ev)  # already dispatched: must be a no-op
    sim.run()
    assert fired == ["a", "b"]
    assert sim.events_processed == 2


@pytest.mark.parametrize("seed", [3, 17])
def test_event_order_deterministic_under_interleaved_cancel_push(seed):
    def drive(entropy):
        rng = np.random.default_rng(entropy)
        sim = Simulation(seed=0)
        log = []

        def note(i):
            log.append((sim.now, i))

        handles = []
        for i in range(400):
            op = int(rng.integers(3))
            if op == 0 or not handles:
                handles.append(
                    sim.call_in(float(rng.integers(10)), note, i)
                )
            elif op == 1:
                sim.cancel(handles[int(rng.integers(len(handles)))])
            else:
                sim.run(until=sim.now + 1.0)
        sim.run()
        return log

    assert drive(seed) == drive(seed)


@pytest.mark.parametrize("until", [None, 50.0])
def test_mass_cancel_mid_run_compacts_without_losing_events(until):
    """A callback cancels more than half of the live events, which
    compacts the heap while the dispatch loop holds it. The survivors,
    and the events the callback schedules after compacting, all fire in
    ``(time, priority, seq)`` order."""
    sim = Simulation()
    rng = np.random.default_rng(11)
    fired = []
    keys = {}
    handles = []

    def record(key):
        fired.append(key)

    def schedule(time, priority):
        ev = sim.call_at(time, record, len(keys), priority=priority)
        keys[len(keys)] = (time, priority, ev[2])
        handles.append(ev)

    for _ in range(200):
        schedule(float(rng.integers(2, 80)), int(rng.integers(0, 3)))
    doomed = [ev for i, ev in enumerate(handles) if i % 4 != 0]
    compacted = []

    def purge():
        queue = sim._queue
        heap = queue._heap
        for ev in doomed:
            sim.cancel(ev)
        # without a compaction the heap would still hold every entry
        compacted.append(len(heap) < len(doomed))
        assert queue._heap is heap  # rebuilt in place, not rebound
        for _ in range(20):
            schedule(float(rng.integers(1, 80)), int(rng.integers(0, 3)))

    sim.call_at(1.0, purge)
    sim.run(until=until)
    if until is not None:
        sim.run()
    assert compacted == [True]
    dead = {ev[2] for ev in doomed}
    survivors = sorted(
        key for key, (_, _, seq) in keys.items() if seq not in dead
    )
    assert sorted(fired) == survivors
    order = [keys[key] for key in fired]
    assert order == sorted(order)
    assert len(sim._queue) == 0
    assert sim._queue.popped == len(survivors) + 1  # and purge itself
