"""Closed-form oracles: scenarios whose answer follows from arithmetic.

A simulation that reproduces its own digests but computes the wrong
times fails these; the digest tests would only see it change.
"""

import math

import pytest

from repro.cluster import Cluster
from repro.core.instrumentation import decompose
from repro.des import Simulation
from repro.net import Link, Network
from repro.pilot import (
    ComputePilotDescription,
    ComputeUnitDescription,
    PilotManager,
    UnitManager,
)
from repro.pilot.agent import Agent
from repro.telemetry import build_graph

# -- the link: k equal flows share the bandwidth ------------------------------


@pytest.mark.parametrize("k", [1, 2, 7, 64])
def test_equal_flows_on_an_idle_link_finish_together(k):
    """k flows of s bytes admitted together on an idle link each move at
    bandwidth/k, so all finish at t0 + latency + k*s/bandwidth.

    Tolerance: the link computes the finish as (t0 + latency) +
    s / (bandwidth / k), a different rounding of the same sum; 1e-12
    relative is a few ulps at these magnitudes."""
    t0, latency, bandwidth, size = 100.0, 0.05, 1e6, 3e5
    sim = Simulation()
    link = Link(sim, "wan", bandwidth, latency_s=latency)
    flows = []
    sim.call_at(t0, lambda: flows.extend(
        link.transfer(size) for _ in range(k)
    ))
    sim.run()
    assert len(flows) == k and all(f.ok for f in flows)
    want = t0 + latency + k * size / bandwidth
    for flow in flows:
        assert flow.end_time == pytest.approx(want, rel=1e-12, abs=0.0)
    assert link.bytes_moved == k * size


# -- the pilot: n units on c cores through a rate-limited launcher ------------

CORES, DURATION = 8, 600.0


def _run_units(n):
    """One active CORES-core pilot on an idle machine runs n one-core,
    staging-free units of DURATION; returns (submit time, units, the
    decomposition)."""
    sim = Simulation(seed=0)
    network = Network(sim)
    network.add_site("site", bandwidth_bytes_per_s=1e7, latency_s=0.01)
    cluster = Cluster(sim, "site", nodes=4, cores_per_node=CORES,
                      submit_overhead=0.0)
    pm = PilotManager(sim, {"site": cluster})
    (pilot,) = pm.submit_pilots(
        ComputePilotDescription(resource="site", cores=CORES, runtime_min=600)
    )
    sim.run(until=100.0)
    assert pilot.is_active
    t_submit = sim.now
    um = UnitManager(sim, network, scheduler="backfill")
    um.add_pilots(pilot)
    units = um.submit_units([
        ComputeUnitDescription(name=f"u{i}", duration_s=DURATION, cores=1)
        for i in range(n)
    ])
    sim.run_process(sim.process(_wait(um, units)))
    graph = build_graph([pilot], units, t_submit, sim.now)
    return t_submit, units, decompose(graph, [pilot], units)


def _wait(um, units):
    yield um.wait_units(units)


def _launch_starts(n, t0):
    """Each unit's EXECUTING start, from the agent's launcher: a unit
    launches at the later of the moment it holds a core and the next
    free slot, the slots 1/launch_rate apart
    (``Agent.reserve_launch_slot``). The first CORES units hold a core
    at t0; unit i after them holds the one unit i - CORES frees."""
    starts, cursor = [], t0
    for i in range(n):
        held = t0 if i < CORES else starts[i - CORES] + DURATION
        slot = max(held, cursor)
        cursor = slot + 1.0 / Agent.launch_rate
        starts.append(slot)
    return starts


@pytest.mark.parametrize("n", [1, 5, 8, 9, 20, 64])
def test_units_on_one_pilot_follow_the_launch_schedule(n):
    """Tx = ceil(n/c)*d + ((n-1) mod c)/r when d >= c/r: the launcher
    staggers each wave of c units by 1/r, and a wave waits for the
    cores the previous one frees. For n <= c that is (n-1)/r + d.

    Tolerance: the launcher's slots add 1/r once per launch and the
    kernel schedules a launch at now + (slot - now), so times carry a
    few ulps of rounding; 1e-9 s is far below any modelled delay."""
    rate = Agent.launch_rate
    assert DURATION >= CORES / rate  # the launcher is not the bottleneck
    t0, units, d = _run_units(n)
    assert d.units_done == n
    got = sorted(u.history.timestamp("EXECUTING") for u in units)
    want = _launch_starts(n, t0)
    assert got == pytest.approx(want, rel=0.0, abs=1e-9)
    tx = math.ceil(n / CORES) * DURATION + ((n - 1) % CORES) / rate
    if n <= CORES:
        assert tx == pytest.approx((n - 1) / rate + DURATION, abs=1e-12)
    assert d.tx == pytest.approx(tx, rel=0.0, abs=1e-9)
