"""Workflow import: execute arbitrary task DAGs through the middleware.

The paper integrates the Swift workflow language with the AIMES
middleware and experiments with "ways to decompose Swift workflows to
adapt to resource availability". This module is the language-neutral
equivalent: any :class:`networkx.DiGraph` whose nodes carry task
attributes becomes a :class:`~repro.skeleton.model.ConcreteApplication`
the Execution Manager can run, and :func:`partition_levels` exposes the
level-wise decomposition (each level's width bounds the useful pilot
concurrency for that phase).

Node attributes:

``duration`` (required)
    Task runtime in seconds.
``cores`` (default 1)
    Cores for the task.
``input_bytes`` (default 0)
    Size of the task's *external* input (roots only; non-root tasks read
    their parents' outputs).
``output_bytes`` (default 2000)
    Size of the file the task produces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from .model import (
    ConcreteApplication,
    ConcreteStage,
    ConcreteTask,
    FileSpec,
    SkeletonError,
)

if TYPE_CHECKING:  # networkx is optional: the ``dag`` extra
    import networkx as nx


def partition_levels(graph: "nx.DiGraph") -> List[List[str]]:
    """Group nodes by dependency depth (longest path from any root).

    Level *k* contains tasks whose deepest ancestor chain has length
    *k*; all of a level can run concurrently once the previous levels
    are done. This is the decomposition used to adapt workflow phases
    to resource availability.
    """
    import networkx as nx

    if not nx.is_directed_acyclic_graph(graph):
        raise SkeletonError("workflow graph must be a DAG")
    depth: Dict[str, int] = {}
    for node in nx.topological_sort(graph):
        preds = list(graph.predecessors(node))
        depth[node] = 0 if not preds else 1 + max(depth[p] for p in preds)
    levels: List[List[str]] = [[] for _ in range(max(depth.values(), default=-1) + 1)]
    for node, d in depth.items():
        levels[d].append(node)
    for level in levels:
        level.sort()
    return levels


#: output size of a DAG node with no ``output_bytes`` attribute.
DEFAULT_OUTPUT_BYTES = 2_000.0


def from_dag(graph: "nx.DiGraph", name: str = "workflow") -> ConcreteApplication:
    """Convert a task DAG into a runnable concrete application."""
    if graph.number_of_nodes() == 0:
        raise SkeletonError("workflow graph has no tasks")
    levels = partition_levels(graph)

    # Validate attributes up front for a clear error surface.
    for node, data in graph.nodes(data=True):
        if "duration" not in data:
            raise SkeletonError(f"workflow node {node!r} lacks 'duration'")
        if data["duration"] < 0:
            raise SkeletonError(f"workflow node {node!r}: negative duration")
        if data.get("cores", 1) < 1:
            raise SkeletonError(f"workflow node {node!r}: cores must be >= 1")

    prep_files: List[FileSpec] = []
    outputs: Dict[str, FileSpec] = {}
    stages: List[ConcreteStage] = []

    for level_index, level in enumerate(levels):
        tasks: List[ConcreteTask] = []
        for i, node in enumerate(level):
            data = graph.nodes[node]
            uid = f"{name}/{node}"
            parents = sorted(graph.predecessors(node))
            if parents:
                inputs = tuple(outputs[p] for p in parents)
            else:
                size = float(data.get("input_bytes", 0.0))
                if size > 0:
                    fspec = FileSpec(f"{uid}.in", size)
                    prep_files.append(fspec)
                    inputs = (fspec,)
                else:
                    inputs = ()
            out = FileSpec(
                f"{uid}.out", float(data.get("output_bytes", DEFAULT_OUTPUT_BYTES))
            )
            outputs[node] = out
            tasks.append(
                ConcreteTask(
                    uid=uid,
                    stage=f"level{level_index}",
                    stage_index=level_index,
                    index=i,
                    duration=float(data["duration"]),
                    cores=int(data.get("cores", 1)),
                    inputs=inputs,
                    outputs=(out,),
                    depends_on=tuple(f"{name}/{p}" for p in parents),
                )
            )
        stages.append(
            ConcreteStage(name=f"level{level_index}", index=level_index, tasks=tasks)
        )
    return ConcreteApplication(
        name=name, stages=stages, preparation_files=prep_files
    )


class WorkflowAPI:
    """Skeleton-API-compatible wrapper around an imported workflow.

    Lets a DAG be handed to :class:`~repro.core.ExecutionManager` just
    like a skeleton application: it exposes ``app`` metadata, the cached
    ``concrete`` application, ``requirements()``, and ``prepare()``.
    """

    def __init__(self, graph: "nx.DiGraph", name: str = "workflow") -> None:
        from .api import ApplicationRequirements  # local to avoid cycle

        self._requirements_cls = ApplicationRequirements
        self.concrete = from_dag(graph, name=name)
        self.graph = graph
        self.app = _WorkflowAppFacade(self.concrete)

    def requirements(self):
        concrete = self.concrete
        widths = [
            sum(t.cores for t in stage.tasks) for stage in concrete.stages
        ]
        return self._requirements_cls(
            name=concrete.name,
            n_tasks=concrete.n_tasks,
            n_stages=len(concrete.stages),
            max_stage_width=max(widths),
            max_task_cores=concrete.max_task_cores,
            estimated_compute_seconds=concrete.total_compute_seconds,
            estimated_longest_task=max(
                t.duration for t in concrete.all_tasks()
            ),
            total_input_bytes=concrete.total_input_bytes,
            total_output_bytes=sum(
                t.output_bytes for t in concrete.all_tasks()
            ),
        )

    def prepare(self, network) -> int:
        from ..net import ORIGIN

        fs = network.fs(ORIGIN)
        for f in self.concrete.preparation_files:
            fs.write(f.name, f.size_bytes, now=network.sim.now)
        return len(self.concrete.preparation_files)


class _WorkflowAppFacade:
    """Minimal ``app``-shaped object (name attribute) for reports/traces."""

    def __init__(self, concrete: ConcreteApplication) -> None:
        self.name = concrete.name
