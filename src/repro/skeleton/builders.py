"""Convenience builders for the three canonical application classes.

The paper generalizes bag-of-task, (iterative) map-reduce, and
(iterative) multistage workflows into multistage workflows: bag-of-task
is a single stage, map-reduce is a map stage plus a reduce stage. These
builders produce :class:`~repro.skeleton.model.SkeletonApp` instances
with the right shapes, including the exact workloads of Table I.
"""

from __future__ import annotations

from typing import Optional

from .distributions import Constant, Sampler, TruncatedGaussian, parse_sampler
from .model import SkeletonApp, StageSpec


def bag_of_tasks(
    n_tasks: int,
    task_duration: "str | float | Sampler" = 900.0,
    input_size: "str | float | Sampler" = 1_000_000.0,
    output_size: "str | float | Sampler" = 2_000.0,
    cores_per_task: int = 1,
    name: Optional[str] = None,
) -> SkeletonApp:
    """A single-stage application of independent tasks."""
    return SkeletonApp(
        name=name or f"bot-{n_tasks}",
        stages=[
            StageSpec(
                name="bag",
                n_tasks=n_tasks,
                task_duration=parse_sampler(task_duration),
                input_mapping="external",
                input_size=parse_sampler(input_size),
                output_size=parse_sampler(output_size),
                cores_per_task=cores_per_task,
            )
        ],
    )


def map_reduce(
    n_map_tasks: int,
    n_reduce_tasks: int = 1,
    map_duration: "str | float | Sampler" = 600.0,
    reduce_duration: "str | float | Sampler" = 300.0,
    input_size: "str | float | Sampler" = 1_000_000.0,
    intermediate_size: "str | float | Sampler" = 100_000.0,
    output_size: "str | float | Sampler" = 2_000.0,
    iterations: int = 1,
    name: Optional[str] = None,
) -> SkeletonApp:
    """A two-stage map/reduce application (optionally iterated).

    When iterated, each iteration's map stage consumes the previous
    iteration's reduce outputs (the first iteration reads external
    inputs, via the materializer's fallback).
    """
    map_mapping = "one_to_one" if iterations > 1 else "external"
    return SkeletonApp(
        name=name or f"mapreduce-{n_map_tasks}x{n_reduce_tasks}",
        stages=[
            StageSpec(
                name="map",
                n_tasks=n_map_tasks,
                task_duration=parse_sampler(map_duration),
                input_mapping=map_mapping,
                input_size=parse_sampler(input_size),
                output_size=parse_sampler(intermediate_size),
            ),
            StageSpec(
                name="reduce",
                n_tasks=n_reduce_tasks,
                task_duration=parse_sampler(reduce_duration),
                input_mapping="all_to_one",
                output_size=parse_sampler(output_size),
            ),
        ],
        iterations=iterations,
    )


# -- The paper's experimental workloads (Table I) -------------------------------

#: Truncated Gaussian used by experiments 2 and 4: mean 15 min, stdev
#: 5 min, bounds [1, 30] min (in seconds).
PAPER_GAUSSIAN = TruncatedGaussian(mu=900.0, sigma=300.0, low=60.0, high=1800.0)

#: Uniform (constant) duration used by experiments 1 and 3: 15 min.
PAPER_UNIFORM = Constant(900.0)

#: Per-task data of all paper experiments: 1 MB in, 2 KB out.
PAPER_INPUT_BYTES = 1_000_000.0
PAPER_OUTPUT_BYTES = 2_000.0

#: Task counts 2^n for n = 3..11 (8 .. 2048).
PAPER_TASK_COUNTS = tuple(2**n for n in range(3, 12))


def paper_skeleton(n_tasks: int, gaussian: bool) -> SkeletonApp:
    """One of the 18 skeleton applications in Table I, named
    ``paper-uniform-<n>`` or ``paper-gauss-<n>``.

    ``gaussian=False`` gives the uniform (15 min) task durations of
    experiments 1 and 3; ``gaussian=True`` the truncated Gaussian of
    experiments 2 and 4.
    """
    if n_tasks not in PAPER_TASK_COUNTS:
        raise ValueError(
            f"paper workloads use task counts {PAPER_TASK_COUNTS}, got {n_tasks}"
        )
    duration = PAPER_GAUSSIAN if gaussian else PAPER_UNIFORM
    kind = "gauss" if gaussian else "uniform"
    return bag_of_tasks(
        n_tasks=n_tasks,
        task_duration=duration,
        input_size=PAPER_INPUT_BYTES,
        output_size=PAPER_OUTPUT_BYTES,
        name=f"paper-{kind}-{n_tasks}",
    )
