"""Configuration-file front end for skeleton applications.

The original Application Skeleton tool is driven by a configuration file;
we provide the same workflow with an INI dialect::

    [application]
    name = sample
    iterations = 1
    stages = map reduce

    [stage:map]
    tasks = 16
    duration = gauss(900, 300, 60, 1800)
    input = external
    input_size = 1000000
    output_size = 100000

    [stage:reduce]
    tasks = 1
    duration = 300
    input = all_to_one
    output_size = 2000

Values for ``duration`` / ``cores`` / ``input_size`` / ``output_size``
use the sampler spec notation of :mod:`repro.skeleton.distributions`;
``poly()`` reads a sibling attribute, so only the two sizes take it.
"""

from __future__ import annotations

import configparser
from typing import List

from .distributions import parse_sampler
from .model import SkeletonApp, SkeletonError, StageSpec


def parse_config(text: str) -> SkeletonApp:
    """Parse an INI skeleton description into a SkeletonApp."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise SkeletonError(f"malformed skeleton config: {exc}") from exc

    if "application" not in cp:
        raise SkeletonError("missing [application] section")
    app_sec = cp["application"]
    name = app_sec.get("name", "skeleton-app")
    iterations = app_sec.getint("iterations", fallback=1)
    stage_names = app_sec.get("stages", "").split()
    if not stage_names:
        raise SkeletonError("[application] must list stage names in 'stages'")

    stages: List[StageSpec] = []
    for sname in stage_names:
        section = f"stage:{sname}"
        if section not in cp:
            raise SkeletonError(f"missing [{section}] section")
        sec = cp[section]
        if "tasks" not in sec:
            raise SkeletonError(f"[{section}] missing required key 'tasks'")
        if "duration" not in sec:
            raise SkeletonError(f"[{section}] missing required key 'duration'")
        stages.append(
            StageSpec(
                name=sname,
                n_tasks=sec.getint("tasks"),
                task_duration=parse_sampler(sec.get("duration")),
                input_mapping=sec.get("input", "external"),
                input_size=parse_sampler(sec.get("input_size", "1000000")),
                output_size=parse_sampler(sec.get("output_size", "2000")),
                cores_per_task=sec.get("cores", "1"),
                outputs_per_task=sec.getint("outputs_per_task", fallback=1),
            )
        )
    return SkeletonApp(name=name, stages=stages, iterations=iterations)

