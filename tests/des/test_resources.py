"""Unit tests for CapacityResource."""

import pytest

from repro.des import CapacityResource, ProcessError, Simulation


def test_capacity_validation():
    sim = Simulation()
    with pytest.raises(ValueError):
        CapacityResource(sim, 0)
    res = CapacityResource(sim, 4)
    with pytest.raises(ValueError):
        res.acquire(0)
    with pytest.raises(ValueError):
        res.acquire(5)


def test_acquire_release_accounting():
    sim = Simulation()
    res = CapacityResource(sim, 4)
    a = res.acquire(3)
    assert a.triggered and a.granted
    assert res.available == 1
    a.release()
    assert res.available == 4


def test_fifo_blocking_grant():
    sim = Simulation()
    res = CapacityResource(sim, 2)
    log = []

    def worker(name, amount, hold):
        req = res.acquire(amount)
        yield req
        log.append((sim.now, name, "got"))
        yield sim.timeout(hold)
        req.release()

    sim.process(worker("a", 2, 5))
    sim.process(worker("b", 1, 5))
    sim.process(worker("c", 1, 5))
    sim.run()
    # a holds both units until t=5; b and c then run concurrently
    assert log == [(0, "a", "got"), (5, "b", "got"), (5, "c", "got")]


def test_no_bypass_of_head_request():
    """A small request behind a large one must wait (strict FIFO)."""
    sim = Simulation()
    res = CapacityResource(sim, 4)
    log = []

    def holder():
        req = res.acquire(3)
        yield req
        yield sim.timeout(10)
        req.release()

    def big_then_small():
        big = res.acquire(4)  # cannot fit while holder holds 3
        small = res.acquire(1)  # could fit, but must not bypass

        def watch(name, r):
            yield r
            log.append((sim.now, name))
            r.release()

        sim.process(watch("big", big))
        sim.process(watch("small", small))
        yield sim.timeout(0)

    sim.process(holder())
    sim.process(big_then_small())
    sim.run()
    assert log == [(10, "big"), (10, "small")]


def test_release_ungranted_raises():
    sim = Simulation()
    res = CapacityResource(sim, 1)
    res.acquire(1)
    pending = res.acquire(1)
    with pytest.raises(ProcessError):
        pending.release()


def test_cancel_pending_request():
    sim = Simulation()
    res = CapacityResource(sim, 1)
    first = res.acquire(1)
    second = res.acquire(1)
    second.cancel()
    first.release()
    assert not second.granted
    assert res.available == 1


def test_cancel_granted_raises():
    sim = Simulation()
    res = CapacityResource(sim, 1)
    a = res.acquire(1)
    with pytest.raises(ProcessError):
        a.cancel()

