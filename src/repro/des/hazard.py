"""Hazard processes: seeded Poisson event streams on the kernel.

A hazard is a stochastic failure source: events arrive at exponentially
distributed intervals with a fixed rate. The fault-injection layer uses
hazards to model pilot/agent deaths and other misbehaviour whose *timing*
must be reproducible from a single RNG seed — the generator is supplied
by the caller (never drawn from the kernel's own streams), so a fault
plan's seed alone determines the hazard timeline.
"""

from __future__ import annotations

from typing import Any, Callable

from .process import Process

if False:  # pragma: no cover - typing only
    from .kernel import Simulation


def hazard_process(
    sim: "Simulation",
    rate_per_s: float,
    action: Callable[[float], Any],
    rng,
    start: float,
    stop: float,
    name: str,
) -> Process:
    """Fire ``action(now)`` at exponential intervals of mean ``1/rate``.

    The process sleeps until ``start`` (absolute simulated time), then
    repeatedly draws an inter-arrival gap from ``rng`` and fires. It ends
    when the next arrival would land after ``stop``.
    """
    if rate_per_s <= 0:
        raise ValueError(f"hazard rate must be positive, got {rate_per_s}")
    if stop < start:
        raise ValueError(f"hazard window stop {stop} precedes start {start}")

    def _run():
        if start > sim.now:
            yield sim.timeout(start - sim.now)
        while True:
            gap = float(rng.exponential(1.0 / rate_per_s))
            if sim.now + gap > stop:
                return
            yield sim.timeout(gap)
            action(sim.now)

    return sim.process(_run(), name=name)
