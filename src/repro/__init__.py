"""repro — a reproduction of the AIMES middleware (Turilli et al., 2016).

"Integrating Abstractions to Enhance the Execution of Distributed
Applications": four abstractions — Skeleton Application, Bundle, Pilot,
and Execution Strategy — integrated into a pilot-based middleware,
running here on a discrete-event-simulated multi-HPC substrate.

Quickstart::

    from repro import (
        Simulation, Network, build_pool, ResourceBundle,
        ExecutionManager, PlannerConfig, Binding,
        SkeletonAPI, bag_of_tasks,
    )

    sim = Simulation(seed=42)
    net = Network(sim)
    pool = build_pool(sim)
    for name in pool:
        net.add_site(name)
    bundle = ResourceBundle("all", sim, net, pool.values())
    em = ExecutionManager(sim, net, bundle)
    report = em.execute(SkeletonAPI(bag_of_tasks(64), seed=1))
    print(report.summary())
"""

from .bundle import QuantilePredictor, ResourceBundle
from .cluster import (
    BackgroundWorkload,
    BatchJob,
    Cluster,
    PRESETS,
    ResourcePreset,
    SimulatedResource,
    WorkloadProfile,
    build_pool,
    build_resource,
)
from .core import (
    Binding,
    ExecutionManager,
    ExecutionReport,
    ExecutionStrategy,
    PlannerConfig,
    TTCDecomposition,
    derive_strategy,
)
from .des import Simulation
from .net import Network, ORIGIN
from .pilot import (
    ComputePilot,
    ComputePilotDescription,
    ComputeUnit,
    ComputeUnitDescription,
    PilotManager,
    UnitManager,
)
from .saga import JobDescription, JobService
from .skeleton import (
    SkeletonAPI,
    SkeletonApp,
    StageSpec,
    bag_of_tasks,
    map_reduce,
    paper_skeleton,
    parse_config,
)
from .telemetry import (
    KernelProfiler,
    MetricsRegistry,
    TelemetryHub,
    TelemetrySummary,
    chrome_trace,
    otlp_trace,
    save_chrome_trace,
    save_otlp_trace,
)

__version__ = "1.0.0"

__all__ = [
    "BackgroundWorkload",
    "BatchJob",
    "Binding",
    "Cluster",
    "ComputePilot",
    "ComputePilotDescription",
    "ComputeUnit",
    "ComputeUnitDescription",
    "ExecutionManager",
    "ExecutionReport",
    "ExecutionStrategy",
    "JobDescription",
    "JobService",
    "KernelProfiler",
    "MetricsRegistry",
    "Network",
    "ORIGIN",
    "PRESETS",
    "PilotManager",
    "PlannerConfig",
    "QuantilePredictor",
    "ResourceBundle",
    "ResourcePreset",
    "SimulatedResource",
    "Simulation",
    "SkeletonAPI",
    "SkeletonApp",
    "StageSpec",
    "TTCDecomposition",
    "TelemetryHub",
    "TelemetrySummary",
    "UnitManager",
    "WorkloadProfile",
    "bag_of_tasks",
    "build_pool",
    "build_resource",
    "chrome_trace",
    "derive_strategy",
    "map_reduce",
    "otlp_trace",
    "paper_skeleton",
    "parse_config",
    "save_chrome_trace",
    "save_otlp_trace",
    "__version__",
]
