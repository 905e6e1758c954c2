"""One-call construction of the simulated experimental environment.

Each experiment repetition runs in a *fresh* simulation: the resources
it observes, each with a primed queue and a live background workload,
the star WAN, a bundle over them, and an Execution Manager. A randomized
warm-up advances the simulation before the application is submitted,
so different repetitions sample different queue states — the paper's
"applications executed at irregular intervals to avoid effects of
short-term resource load patterns".

:func:`draw_observed` draws a repetition's warm-up offset and target
resources *before* anything is built, so only the chosen resources are
simulated. That is exact: each resource's background load draws from
its own named stream (``workload/{name}``), and removing another
resource's events leaves the ``(time, priority, seq)`` order of the
remaining ones unchanged, so the chosen resources' histories — and the
application's — are the same as in a full-pool build. Studies whose
planner picks the resources (``PlannerConfig(optimize=...)``) observe
every bundle member and build the full pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..bundle import BundleManager, ResourceBundle
from ..cluster import PRESETS, ResourcePreset, SimulatedResource, build_pool, build_resource
from ..core import ExecutionManager
from ..des import Simulation
from ..net import DEFAULT_BANDWIDTH, DEFAULT_LATENCY, Network


@dataclass
class Environment:
    """A live simulated testbed."""

    sim: Simulation
    network: Network
    pool: Dict[str, SimulatedResource]
    bundle: ResourceBundle
    execution_manager: ExecutionManager

    def warm_up(self, duration_s: float) -> None:
        """Advance the simulation so queues evolve before the experiment."""
        self.sim.run(until=self.sim.now + duration_s)


def draw_observed(
    rng: np.random.Generator,
    n_pilots: int,
    warmup_s: Tuple[float, float],
    pool: Optional[Sequence[str]] = None,
    presets: Mapping[str, ResourcePreset] = PRESETS,
) -> Tuple[float, Tuple[str, ...], Tuple[str, ...]]:
    """Draw a repetition's warm-up offset, then its target resources.

    Returns ``(offset_s, chosen, observed)``: the offset is uniform in
    ``warmup_s``; ``chosen`` is ``n_pilots`` distinct names of ``pool``
    (default: every name of ``presets``, in order) in submission order;
    ``observed`` is the same set in pool order, the ``resources=`` to
    build. Both draws come from ``rng`` in that order, so a repetition
    seeded the same way picks the same offset and resources whatever
    is built afterwards.

    Raises :class:`ValueError` before any simulation work when the pool
    names an unknown preset or has fewer than ``n_pilots`` resources.
    """
    names = tuple(dict.fromkeys(pool)) if pool else tuple(presets)
    unknown = [n for n in names if n not in presets]
    if unknown:
        raise ValueError(
            f"unknown resource preset(s) {unknown}; known: {sorted(presets)}"
        )
    if n_pilots > len(names):
        raise ValueError(
            f"{n_pilots} pilots need {n_pilots} distinct resources, but the "
            f"pool has {len(names)}: {list(names)}"
        )
    offset = float(rng.uniform(*warmup_s))
    chosen = tuple(
        str(n) for n in rng.choice(names, size=n_pilots, replace=False)
    )
    observed = tuple(n for n in names if n in chosen)
    return offset, chosen, observed


def build_environment(
    seed: int,
    resources: Optional[Sequence[str]] = None,
    bandwidth_bytes_per_s: Optional[float] = None,
    latency_s: Optional[float] = None,
    prime: bool = True,
    presets: Optional[Sequence[ResourcePreset]] = None,
    supervision=None,
    telemetry: bool = False,
) -> Environment:
    """Create a fresh, fully wired simulated testbed.

    WAN bandwidth/latency default to each preset's own values (the sites
    have heterogeneous connectivity); pass explicit numbers to force a
    uniform network for controlled comparisons. ``presets`` replaces the
    named built-in pool with explicit presets (e.g. a synthetic pool for
    scaling studies). ``supervision`` (a
    :class:`~repro.health.SupervisionPolicy`) turns on resource health
    supervision — circuit breakers, the unit watchdog, and the deadline
    supervisor — on the Execution Manager. ``telemetry`` enables the
    kernel's :class:`~repro.telemetry.TelemetryHub` before any layer is
    built, so spans/metrics cover the whole environment lifetime.
    """
    sim = Simulation(seed=seed)
    if telemetry:
        sim.telemetry.enable()
    network = Network(sim)
    if presets is not None:
        pool = {
            preset.name: build_resource(sim, preset, prime=prime)
            for preset in presets
        }
    else:
        names = tuple(resources) if resources else tuple(PRESETS)
        pool = build_pool(sim, names=names, prime=prime)
    for name, res in pool.items():
        network.add_site(
            name,
            bandwidth_bytes_per_s=(
                bandwidth_bytes_per_s
                if bandwidth_bytes_per_s is not None
                else res.preset.wan_bandwidth_bytes_per_s
            ),
            latency_s=(
                latency_s if latency_s is not None else res.preset.wan_latency_s
            ),
        )
    bundle = BundleManager(sim, network).create_bundle("testbed", pool.values())
    schemas = {n: r.preset.access_schema for n, r in pool.items()}
    em = ExecutionManager(
        sim, network, bundle, access_schemas=schemas, supervision=supervision,
    )
    return Environment(
        sim=sim, network=network, pool=pool, bundle=bundle,
        execution_manager=em,
    )
