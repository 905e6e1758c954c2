"""Additional link-model tests: rates, durations, trace consistency."""

import pytest

from repro.des import Simulation
from repro.net import Link


def test_duration_none_while_in_flight():
    sim = Simulation()
    link = Link(sim, "l", 100.0, latency_s=0.0)
    t = link.transfer(1000)
    sim.run(until=1.0)
    assert t.end_time is None
    sim.run()
    assert t.end_time - t.start_time == pytest.approx(10.0)


def test_transfer_labels_default_and_custom():
    sim = Simulation()
    link = Link(sim, "wan", 100.0, latency_s=0.0)
    t1 = link.transfer(10)
    t2 = link.transfer(10, label="special")
    sim.run()
    assert "wan" in t1.label
    assert t2.label == "special"


def test_many_simultaneous_tiny_transfers_terminate():
    """Regression: float residue must never starve the clock."""
    sim = Simulation()
    link = Link(sim, "l", 1e7, latency_s=0.001)
    transfers = [link.transfer(2_000.0) for _ in range(500)]
    sim.run(until=3600)
    assert all(t.triggered for t in transfers)
    assert link.active_flows == 0


def test_interleaved_starts_and_finishes_are_causal():
    sim = Simulation()
    link = Link(sim, "l", 1000.0, latency_s=0.0)
    finished = []
    for i, (start, size) in enumerate([(0, 100), (0.05, 5000), (0.2, 100)]):
        def go(size=size, i=i):
            t = link.transfer(size)
            t.add_callback(lambda w: finished.append(i))
        sim.call_at(start, go)
    sim.run()
    # the two small transfers finish before the big one
    assert finished[-1] == 1
