"""The Skeleton Application abstraction.

Parameterized descriptions of many-task applications — stages, task
counts, duration and file-size distributions — that materialize into
concrete task sets, plus builders for the canonical application classes
(bag-of-task, map-reduce), a configuration-file parser, and
output emitters (shell / JSON / DAG / DAX).
"""

from .api import ApplicationRequirements, SkeletonAPI
from .builders import (
    PAPER_GAUSSIAN,
    PAPER_INPUT_BYTES,
    PAPER_OUTPUT_BYTES,
    PAPER_TASK_COUNTS,
    PAPER_UNIFORM,
    bag_of_tasks,
    map_reduce,
    paper_skeleton,
)
from .distributions import (
    Constant,
    DistributionError,
    LogNormal,
    Polynomial,
    Sampler,
    TruncatedGaussian,
    Uniform,
    parse_sampler,
)
from .emitters import to_dag, to_dax, to_json, to_preparation_script, to_shell
from .model import (
    ConcreteApplication,
    ConcreteStage,
    ConcreteTask,
    FileSpec,
    SkeletonApp,
    SkeletonError,
    StageSpec,
    VALID_MAPPINGS,
)
from .parser import parse_config
from .workflow import WorkflowAPI, from_dag, partition_levels

__all__ = [
    "ApplicationRequirements",
    "Constant",
    "ConcreteApplication",
    "ConcreteStage",
    "ConcreteTask",
    "DistributionError",
    "FileSpec",
    "LogNormal",
    "PAPER_GAUSSIAN",
    "PAPER_INPUT_BYTES",
    "PAPER_OUTPUT_BYTES",
    "PAPER_TASK_COUNTS",
    "PAPER_UNIFORM",
    "Polynomial",
    "Sampler",
    "SkeletonAPI",
    "SkeletonApp",
    "SkeletonError",
    "StageSpec",
    "TruncatedGaussian",
    "Uniform",
    "VALID_MAPPINGS",
    "bag_of_tasks",
    "map_reduce",
    "paper_skeleton",
    "parse_config",
    "parse_sampler",
    "partition_levels",
    "WorkflowAPI",
    "from_dag",
    "to_dag",
    "to_dax",
    "to_json",
    "to_preparation_script",
    "to_shell",
]
