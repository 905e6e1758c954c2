"""Unit tests for generator-based processes and waitable combinators."""

import pytest

from repro.des import (
    Interrupt,
    ProcessError,
    Signal,
    Simulation,
)


def test_timeout_sequence():
    sim = Simulation()
    log = []

    def proc():
        yield sim.timeout(1)
        log.append(sim.now)
        yield sim.timeout(2)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [1, 3]


def test_timeout_value_passed_to_process():
    """A waitable's value is what the process's ``yield`` returns: a
    timeout's is None, a signal's the one it succeeded with."""
    sim = Simulation()
    got = []
    signal = Signal(sim)
    sim.call_in(2, signal.succeed, "payload")

    def proc():
        got.append((yield sim.timeout(1)))
        got.append((yield signal))

    sim.process(proc())
    sim.run()
    assert got == [None, "payload"]


def test_negative_timeout_rejected():
    sim = Simulation()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_signal_wakes_waiter_with_value():
    sim = Simulation()
    sig = Signal(sim)
    got = []

    def waiter():
        v = yield sig
        got.append((sim.now, v))

    sim.process(waiter())
    sim.call_in(4, sig.succeed, 123)
    sim.run()
    assert got == [(4, 123)]


def test_signal_fail_raises_in_waiter():
    sim = Simulation()
    sig = Signal(sim)
    got = []

    def waiter():
        try:
            yield sig
        except RuntimeError as e:
            got.append(str(e))

    sim.process(waiter())
    sim.call_in(1, sig.fail, RuntimeError("bad"))
    sim.run()
    assert got == ["bad"]


def test_signal_double_trigger_rejected():
    sim = Simulation()
    sig = Signal(sim)
    sig.succeed()
    with pytest.raises(ProcessError):
        sig.succeed()


def test_fail_requires_exception_instance():
    sim = Simulation()
    with pytest.raises(TypeError):
        Signal(sim).fail("not an exception")


def test_wait_on_already_triggered_waitable():
    sim = Simulation()
    sig = Signal(sim)
    sig.succeed("early")
    got = []

    def proc():
        v = yield sig
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == ["early"]


def test_process_waits_for_process():
    sim = Simulation()
    log = []

    def child():
        yield sim.timeout(5)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        log.append((sim.now, result))

    sim.process(parent())
    sim.run()
    assert log == [(5, "child-result")]


def test_process_exception_propagates_to_parent():
    sim = Simulation()
    log = []

    def child():
        yield sim.timeout(1)
        raise ValueError("from child")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as e:
            log.append(str(e))

    sim.process(parent())
    sim.run()
    assert log == ["from child"]


def test_yield_non_waitable_fails_process():
    sim = Simulation()

    def proc():
        yield 42

    p = sim.process(proc())
    sim.run()
    assert p.triggered and not p.ok
    assert isinstance(p.exception, ProcessError)


def test_process_requires_generator():
    sim = Simulation()
    with pytest.raises(ProcessError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_interrupt_during_wait():
    sim = Simulation()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as i:
            log.append((sim.now, i.cause))

    p = sim.process(sleeper())
    sim.call_in(3, p.interrupt, "wake up")
    sim.run()
    assert log == [(3, "wake up")]


def test_interrupt_finished_process_raises():
    sim = Simulation()

    def proc():
        yield sim.timeout(1)

    p = sim.process(proc())
    sim.run()
    with pytest.raises(ProcessError):
        p.interrupt()


def test_interrupted_wait_does_not_double_resume():
    sim = Simulation()
    log = []

    def sleeper():
        t = sim.timeout(10)
        try:
            yield t
        except Interrupt:
            log.append("interrupted")
        yield sim.timeout(20)
        log.append(sim.now)

    p = sim.process(sleeper())
    sim.call_in(1, p.interrupt)
    sim.run()
    # the original 10s timeout firing at t=10 must not resume the process
    assert log == ["interrupted", 21]


def test_all_of_collects_values_in_order():
    sim = Simulation()
    got = []

    def proc():
        t1, t2 = Signal(sim), Signal(sim)
        sim.call_in(9, t1.succeed, "a")
        sim.call_in(2, t2.succeed, "b")
        values = yield sim.all_of([t1, t2])
        got.append((sim.now, values))

    sim.process(proc())
    sim.run()
    assert got == [(9, ["a", "b"])]


def test_all_of_empty_succeeds_immediately():
    sim = Simulation()
    w = sim.all_of([])
    assert w.triggered and w.ok and w.value == []


def test_all_of_propagates_failure():
    sim = Simulation()
    got = []

    def failing():
        yield sim.timeout(1)
        raise RuntimeError("nope")

    def proc():
        try:
            yield sim.all_of([sim.timeout(10), sim.process(failing())])
        except RuntimeError as e:
            got.append((sim.now, str(e)))

    sim.process(proc())
    sim.run()
    assert got == [(1, "nope")]


def test_deterministic_interleaving():
    """Two identical simulations produce identical event interleavings."""

    def run_once():
        sim = Simulation(seed=1)
        log = []

        def worker(name, delays):
            for d in delays:
                yield sim.timeout(d)
                log.append((sim.now, name))

        sim.process(worker("a", [1, 1, 1]))
        sim.process(worker("b", [1, 1, 1]))
        sim.run()
        return log

    assert run_once() == run_once()
