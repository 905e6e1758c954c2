"""AIMES core: Execution Strategy, planner, Execution Manager, TTC analysis.

This package implements the paper's primary contribution: making the
decisions that couple a distributed application to multiple dynamic
resources explicit (the Execution Strategy), deriving them from
integrated application + resource information (the planner), enacting
them through the pilot layer (the Execution Manager), and decomposing
the measured time-to-completion from middleware traces.
"""

from .adaptive import AdaptationEvent, AdaptationPolicy, PilotReinforcer
from .analytics import (
    AllocationMetrics,
    allocation_metrics,
    concurrency_series,
)
from .energy import (
    ACTIVE_WATTS,
    IDLE_WATTS,
    EnergyEstimate,
    estimate_energy,
    report_energy,
)
from .execution_manager import (
    ExecutionError,
    ExecutionManager,
    ExecutionReport,
    RecoveryEvent,
    RecoveryPolicy,
)
from .session import report_to_session, save_session
from .gantt import render_report_timeline, render_timeline
from .instrumentation import (
    IntrospectionError,
    TTCDecomposition,
    decompose,
    quarantine_seconds,
)
from .metrics import (
    merge_intervals,
    span,
    union_duration,
)
from .planner import (
    PlannerConfig,
    PlanningError,
    TRP_BASE_S,
    TRP_PER_TASK_S,
    derive_strategy,
    estimate_trp_s,
    estimate_ts_s,
    estimate_tx_s,
)
from .strategy import Binding, Decision, ExecutionStrategy

__all__ = [
    "AdaptationEvent",
    "AdaptationPolicy",
    "AllocationMetrics",
    "allocation_metrics",
    "concurrency_series",
    "render_report_timeline",
    "render_timeline",
    "Binding",
    "ACTIVE_WATTS",
    "IDLE_WATTS",
    "EnergyEstimate",
    "PilotReinforcer",
    "Decision",
    "ExecutionError",
    "ExecutionManager",
    "ExecutionReport",
    "ExecutionStrategy",
    "IntrospectionError",
    "PlannerConfig",
    "PlanningError",
    "RecoveryEvent",
    "RecoveryPolicy",
    "TRP_BASE_S",
    "TRP_PER_TASK_S",
    "TTCDecomposition",
    "decompose",
    "derive_strategy",
    "estimate_energy",
    "estimate_trp_s",
    "estimate_ts_s",
    "estimate_tx_s",
    "report_energy",
    "report_to_session",
    "merge_intervals",
    "quarantine_seconds",
    "save_session",
    "span",
    "union_duration",
]
