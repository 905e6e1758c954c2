"""The skeleton application model: stages of tasks with data dependencies.

A :class:`SkeletonApp` is the *description*: stages with task counts and
attribute samplers. Calling :meth:`SkeletonApp.materialize` draws every
task's duration and file sizes from the samplers and resolves the
stage-to-stage file mappings, producing a :class:`ConcreteApplication`
that downstream layers (emitters, the execution manager) consume.

Stage input mappings supported (the generalized "(iterative) multistage
workflow" of the paper; bag-of-task is single-stage, map-reduce is
two-stage with an ``all_to_one``-style reduce):

* ``external`` — fresh input files created by the preparation step;
* ``one_to_one`` — task *i* reads the outputs of task *i* of the
  previous stage (map);
* ``all_to_one`` — every task reads *all* previous-stage outputs
  (reduce / shuffle);
* ``none`` — tasks read nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .distributions import Constant, Polynomial, Sampler, parse_sampler

VALID_MAPPINGS = ("external", "one_to_one", "all_to_one", "none")


class SkeletonError(ValueError):
    """Raised for invalid skeleton descriptions."""


@dataclass(frozen=True)
class FileSpec:
    """A named file with a size, at materialization time."""

    name: str
    size_bytes: float


@dataclass
class StageSpec:
    """Description of one stage of a skeleton application."""

    name: str
    n_tasks: int
    task_duration: Sampler
    input_mapping: str = "external"
    input_size: Sampler = field(default_factory=lambda: Constant(1_000_000.0))
    output_size: Sampler = field(default_factory=lambda: Constant(2_000.0))
    #: cores per task: an int for uniform tasks, or any sampler spec for
    #: non-uniform task sizes (values are rounded and floored at 1).
    cores_per_task: "int | str | Sampler" = 1
    #: files produced per task (a task may emit several outputs).
    outputs_per_task: int = 1

    def __post_init__(self) -> None:
        if self.n_tasks <= 0:
            raise SkeletonError(f"stage {self.name!r}: n_tasks must be positive")
        if self.outputs_per_task <= 0:
            raise SkeletonError(f"stage {self.name!r}: outputs_per_task must be positive")
        if self.input_mapping not in VALID_MAPPINGS:
            raise SkeletonError(
                f"stage {self.name!r}: unknown input mapping "
                f"{self.input_mapping!r}; valid: {VALID_MAPPINGS}"
            )
        self.task_duration = parse_sampler(self.task_duration)
        self.input_size = parse_sampler(self.input_size)
        self.output_size = parse_sampler(self.output_size)
        if isinstance(self.cores_per_task, int):
            if self.cores_per_task <= 0:
                raise SkeletonError(
                    f"stage {self.name!r}: cores_per_task must be positive"
                )
            self.cores_per_task = Constant(float(self.cores_per_task))
        else:
            self.cores_per_task = parse_sampler(self.cores_per_task)
        # a task's duration and cores are drawn first, with no sibling
        # attribute for a polynomial to read, and planners take their mean
        for attr in ("task_duration", "cores_per_task"):
            if isinstance(getattr(self, attr), Polynomial):
                raise SkeletonError(
                    f"stage {self.name!r}: {attr} cannot be a polynomial "
                    "of another attribute"
                )

    def sample_cores(self, rng) -> int:
        """Draw one task's core count (>= 1)."""
        return max(1, int(round(self.cores_per_task.sample(rng))))


@dataclass
class ConcreteTask:
    """A fully materialized task: fixed duration and files."""

    uid: str
    stage: str
    stage_index: int
    index: int
    duration: float
    cores: int
    inputs: Tuple[FileSpec, ...]
    outputs: Tuple[FileSpec, ...]
    #: uids of tasks whose outputs this task consumes.
    depends_on: Tuple[str, ...] = ()

    @property
    def input_bytes(self) -> float:
        return sum(f.size_bytes for f in self.inputs)

    @property
    def output_bytes(self) -> float:
        return sum(f.size_bytes for f in self.outputs)


@dataclass
class ConcreteStage:
    """All tasks of one stage after materialization."""

    name: str
    index: int
    tasks: List[ConcreteTask]


@dataclass
class ConcreteApplication:
    """A materialized skeleton application, ready to execute."""

    name: str
    stages: List[ConcreteStage]
    #: external input files the preparation step must create at the origin.
    preparation_files: List[FileSpec]

    def all_tasks(self) -> List[ConcreteTask]:
        return [t for s in self.stages for t in s.tasks]

    @property
    def n_tasks(self) -> int:
        return sum(len(s.tasks) for s in self.stages)

    @property
    def total_compute_seconds(self) -> float:
        return sum(t.duration * t.cores for t in self.all_tasks())

    @property
    def total_input_bytes(self) -> float:
        return sum(f.size_bytes for f in self.preparation_files)

    @property
    def max_task_cores(self) -> int:
        return max(t.cores for t in self.all_tasks())


class SkeletonApp:
    """A skeleton application description (stages + iteration groups)."""

    def __init__(
        self,
        name: str,
        stages: Sequence[StageSpec],
        iterations: int = 1,
    ) -> None:
        if not stages:
            raise SkeletonError("application needs at least one stage")
        if iterations < 1:
            raise SkeletonError("iterations must be >= 1")
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise SkeletonError(f"duplicate stage names in {names}")
        first = stages[0]
        if first.input_mapping in ("one_to_one", "all_to_one") and iterations == 1:
            raise SkeletonError(
                f"first stage {first.name!r} cannot map from a previous stage"
            )
        self.name = name
        self.stages = list(stages)
        self.iterations = iterations

    # -- planning estimates (used by the Execution Manager) -------------------

    @property
    def n_tasks(self) -> int:
        return sum(s.n_tasks for s in self.stages) * self.iterations

    def estimated_compute_seconds(self) -> float:
        return (
            sum(
                s.n_tasks * s.task_duration.mean() * s.cores_per_task.mean()
                for s in self.stages
            )
            * self.iterations
        )

    def estimated_longest_task(self) -> float:
        return max(s.task_duration.mean() for s in self.stages)

    def max_stage_width(self) -> int:
        """Peak core demand of any single stage (full concurrency)."""
        import math as _math

        return max(
            int(_math.ceil(s.n_tasks * s.cores_per_task.mean()))
            for s in self.stages
        )

    # -- materialization -------------------------------------------------------

    def materialize(self, rng: np.random.Generator) -> ConcreteApplication:
        """Draw all task attributes and resolve file mappings."""
        stages_out: List[ConcreteStage] = []
        prep_files: List[FileSpec] = []
        prev_tasks: Optional[List[ConcreteTask]] = None
        stage_counter = itertools.count()

        for iteration in range(self.iterations):
            for spec in self.stages:
                s_idx = next(stage_counter)
                label = (
                    spec.name if self.iterations == 1
                    else f"{spec.name}.it{iteration}"
                )
                tasks: List[ConcreteTask] = []
                for i in range(spec.n_tasks):
                    uid = f"{self.name}/{label}/t{i:05d}"
                    duration = float(spec.task_duration.sample(rng))
                    cores = spec.sample_cores(rng)
                    context = {"duration": duration}

                    inputs: List[FileSpec]
                    depends: Tuple[str, ...]
                    mapping = spec.input_mapping
                    if mapping in ("one_to_one", "all_to_one") and prev_tasks is None:
                        # First stage of the first iteration falls back to
                        # external inputs even in iterative apps.
                        mapping = "external"

                    if mapping == "external":
                        size = float(spec.input_size.sample(rng, context))
                        context["input_size"] = size
                        fspec = FileSpec(f"{uid}.in", size)
                        inputs = [fspec]
                        prep_files.append(fspec)
                        depends = ()
                    elif mapping == "one_to_one":
                        src = prev_tasks[i % len(prev_tasks)]
                        inputs = list(src.outputs)
                        context["input_size"] = sum(f.size_bytes for f in inputs)
                        depends = (src.uid,)
                    elif mapping == "all_to_one":
                        inputs = [f for t in prev_tasks for f in t.outputs]
                        context["input_size"] = sum(f.size_bytes for f in inputs)
                        depends = tuple(t.uid for t in prev_tasks)
                    else:  # none
                        inputs = []
                        context["input_size"] = 0.0
                        depends = ()

                    outputs = tuple(
                        FileSpec(
                            f"{uid}.out{j}" if spec.outputs_per_task > 1 else f"{uid}.out",
                            float(spec.output_size.sample(rng, context)),
                        )
                        for j in range(spec.outputs_per_task)
                    )
                    tasks.append(
                        ConcreteTask(
                            uid=uid,
                            stage=label,
                            stage_index=s_idx,
                            index=i,
                            duration=duration,
                            cores=cores,
                            inputs=tuple(inputs),
                            outputs=outputs,
                            depends_on=depends,
                        )
                    )
                stages_out.append(ConcreteStage(name=label, index=s_idx, tasks=tasks))
                prev_tasks = tasks

        return ConcreteApplication(
            name=self.name, stages=stages_out, preparation_files=prep_files
        )
