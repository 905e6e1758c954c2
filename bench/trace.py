"""In-memory spans recorded around the program's public calls.

:func:`instrument` wraps the calls at each layer boundary of a cell —
environment build, resource priming, warm-up, skeleton build, execute,
attribution — plus the store and ledger writes of a campaign. A span
has a name, a start, an end and a parent; the cell's coordinates are its
trace id. The kernel's own split comes from the public
``sim.telemetry.attach_profiler()`` on the environment each cell builds;
its per-label table is stored on the cell span. Spans stay in memory
until the repetition ends and are then written out with its result.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: the cell span and its stage spans (the names :mod:`bench.layers` reads).
CELL = "run_single"
BUILD = "build_environment"
PRIME = "build_pool"
WARMUP = "warm_up"
SKELETON = "SkeletonAPI"
EXECUTE = "execute"
ATTRIBUTION = "attribute_report"
READ_BACK = "read_back"
CAMPAIGN = "campaign"

STORE_METHODS = (
    "transaction", "put_run", "put_error", "begin_attempt", "finish_attempt",
)
LEDGER_METHODS = (
    "campaign_start", "cell", "campaign_end", "campaign_resumed",
    "attempt_started", "attempt_timeout", "cell_retried",
)


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    trace: str
    start: float
    end: float = float("nan")
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; the current cell is the trace id."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.trace_id = CAMPAIGN
        #: the environment the current cell built (its kernel and profiler).
        self.env = None

    @contextmanager
    def span(self, name: str, **attrs: Any):
        sp = Span(
            sid=len(self.spans) + 1,
            parent=self._stack[-1].sid if self._stack else None,
            name=name,
            trace=self.trace_id,
            start=perf_counter(),
            attrs=attrs,
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def to_list(self) -> List[Dict[str, Any]]:
        return [asdict(s) for s in self.spans]


def _profile_table(profiler) -> Dict[str, Any]:
    return {
        "total": profiler.total_wall,
        "labels": {k: list(v) for k, v in profiler.by_label.items()},
        "processes": {k: list(v) for k, v in profiler.by_process.items()},
    }


def instrument(tracer: Tracer, cells: bool = True) -> Callable[[], None]:
    """Install the wrappers; returns the function that removes them.

    ``cells=False`` wraps only the store and ledger: under a worker pool
    the cells run in other processes, whose spans this tracer never sees.
    """
    import repro.experiments.campaign as campaign
    import repro.experiments.environment as environment
    from repro.core.execution_manager import ExecutionManager
    from repro.experiments.ledger import RunLedger
    from repro.experiments.store import CampaignStore

    undo: List[tuple] = []

    def patch(owner, attr: str, make: Callable) -> None:
        orig = getattr(owner, attr)
        undo.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def timed(name: str) -> Callable:
        def make(orig):
            # updated=(): ``orig`` may be a class (SkeletonAPI)
            @functools.wraps(orig, updated=())
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return orig(*args, **kwargs)
            return wrapper
        return make

    def counted(name: str) -> Callable:
        # records how many kernel events the call dispatched
        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                sim = tracer.env.sim
                before = sim.events_processed
                with tracer.span(name) as sp:
                    try:
                        return orig(*args, **kwargs)
                    finally:
                        sp.attrs["events"] = sim.events_processed - before
            return wrapper
        return make

    def cell_span(orig):
        @functools.wraps(orig)
        def wrapper(spec, n_tasks, rep=0, **kwargs):
            tracer.trace_id = f"{spec.exp_id}/{n_tasks}/{rep}"
            tracer.env = None
            try:
                with tracer.span(CELL) as sp:
                    run = orig(spec, n_tasks, rep, **kwargs)
                sp.attrs["profile"] = _profile_table(
                    tracer.env.sim.telemetry.profiler
                )
                sp.attrs["rng_draws"] = tracer.env.sim.rng.draws
                return run
            finally:
                tracer.trace_id = CAMPAIGN
                tracer.env = None
        return wrapper

    def build_span(orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(BUILD):
                env = orig(*args, **kwargs)
            env.sim.telemetry.attach_profiler()
            tracer.env = env
            return env
        return wrapper

    def transaction_span(orig):
        @contextmanager
        def wrapper(self):
            with tracer.span("CampaignStore.transaction"):
                with orig(self):
                    yield
        return wrapper

    try:
        if cells:
            patch(campaign, "run_single", cell_span)
            patch(campaign, "build_environment", build_span)
            patch(environment, "build_pool", timed(PRIME))
            patch(environment.Environment, "warm_up", counted(WARMUP))
            patch(campaign, "SkeletonAPI", timed(SKELETON))
            patch(ExecutionManager, "execute", counted(EXECUTE))
            patch(campaign, "attribute_report", timed(ATTRIBUTION))
        for method in STORE_METHODS:
            make = (
                transaction_span if method == "transaction"
                else timed(f"CampaignStore.{method}")
            )
            patch(CampaignStore, method, make)
        for method in LEDGER_METHODS:
            patch(RunLedger, method, timed(f"RunLedger.{method}"))
    except BaseException:
        _restore(undo)
        raise
    return lambda: _restore(undo)


def _restore(undo: List[tuple]) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)
    undo.clear()
