"""Unit tests for the fair-share link model."""

import pytest

from repro.des import Simulation
from repro.net import Link


def test_validation():
    sim = Simulation()
    with pytest.raises(ValueError):
        Link(sim, "l", 0)
    with pytest.raises(ValueError):
        Link(sim, "l", 100, latency_s=-1)
    link = Link(sim, "l", 100, latency_s=0)
    with pytest.raises(ValueError):
        link.transfer(-5)


def test_single_transfer_time():
    sim = Simulation()
    link = Link(sim, "l", bandwidth_bytes_per_s=100.0, latency_s=1.0)
    t = link.transfer(1000)
    sim.run()
    assert t.triggered and t.ok
    # 1 s latency + 1000 B / 100 B/s = 11 s
    assert t.end_time == pytest.approx(11.0)


def test_zero_byte_transfer_takes_latency_only():
    sim = Simulation()
    link = Link(sim, "l", 100.0, latency_s=0.5)
    t = link.transfer(0)
    sim.run()
    assert t.end_time == pytest.approx(0.5)


def test_two_equal_flows_halve_throughput():
    sim = Simulation()
    link = Link(sim, "l", 100.0, latency_s=0.0)
    t1 = link.transfer(1000)
    t2 = link.transfer(1000)
    sim.run()
    # both share 50 B/s -> 20 s each
    assert t1.end_time == pytest.approx(20.0)
    assert t2.end_time == pytest.approx(20.0)


def test_late_joiner_slows_first_flow():
    sim = Simulation()
    link = Link(sim, "l", 100.0, latency_s=0.0)
    t1 = link.transfer(1000)
    sim.call_in(5.0, link.transfer, 1000)
    sim.run()
    # t1: 5 s at 100 B/s (500 B) then shares 50 B/s for remaining 500 B
    # -> ends at 5 + 10 = 15 s
    assert t1.end_time == pytest.approx(15.0)


def test_flow_departure_speeds_up_remaining():
    sim = Simulation()
    link = Link(sim, "l", 100.0, latency_s=0.0)
    small = link.transfer(250)
    big = link.transfer(1000)
    sim.run()
    # both at 50 B/s; small done at 5 s (250 B). big then has 750 B left
    # at 100 B/s -> done at 5 + 7.5 = 12.5 s
    assert small.end_time == pytest.approx(5.0)
    assert big.end_time == pytest.approx(12.5)


def test_n_concurrent_flows_aggregate_time_scales_linearly():
    """Total time for N equal simultaneous files ~ N * single-file time."""
    def total_time(n):
        sim = Simulation()
        link = Link(sim, "l", 1000.0, latency_s=0.0)
        ts = [link.transfer(1000) for _ in range(n)]
        sim.run()
        return max(t.end_time for t in ts)

    assert total_time(1) == pytest.approx(1.0)
    assert total_time(4) == pytest.approx(4.0)
    assert total_time(16) == pytest.approx(16.0)


def test_counters_and_trace():
    sim = Simulation()
    link = Link(sim, "l", 100.0, latency_s=0.0)
    f1 = link.transfer(100, label="f1")
    f2 = link.transfer(300, label="f2")
    sim.run()
    assert link.completed_transfers == 2
    assert link.bytes_moved == 400
    assert link.active_flows == 0
    # shared 50/50 until f1 drains at t=2, then f2 alone until t=4
    assert (f1.end_time, f2.end_time) == pytest.approx((2.0, 4.0))


def test_conservation_of_bytes_under_churn():
    """Work conservation: with churn, finish order respects sizes and the
    link never moves more than bandwidth * elapsed bytes."""
    sim = Simulation()
    bw = 100.0
    link = Link(sim, "l", bw, latency_s=0.0)
    sizes = [100, 500, 900, 300, 700]
    transfers = []
    for i, s in enumerate(sizes):
        sim.call_in(2.0 * i, lambda s=s: transfers.append(link.transfer(s)))
    sim.run()
    total = sum(sizes)
    makespan = max(t.end_time for t in transfers)
    assert makespan >= total / bw - 1e-9  # can't beat full bandwidth
    assert link.bytes_moved == total
