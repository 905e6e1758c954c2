#!/usr/bin/env python
"""Skeleton planning: what the execution manager reads from a skeleton.

Parses a skeleton configuration whose task lengths are heavy-tailed
(lognormal) and whose task sizes vary, then prints the requirements the
Skeleton API hands the execution manager: the planning estimates taken
from each sampler's mean, next to the compute volume the materialized
application actually draws, and the planner's estimated execution time
on a few core counts.

Run:  python examples/skeleton_planning.py
"""

from repro import SkeletonAPI, parse_config
from repro.core import estimate_tx_s

CONFIG = """
[application]
name = heavy-tailed
stages = simulate analyse

[stage:simulate]
tasks = 64
duration = lognormal(6.5, 0.8, 60, 7200)
cores = uniform(1, 8)
input = external

[stage:analyse]
tasks = 8
duration = lognormal(5.5, 0.4)
input = all_to_one
"""


def main() -> None:
    skeleton = SkeletonAPI(parse_config(CONFIG), seed=7)
    req = skeleton.requirements()
    print(
        f"Skeleton {req.name!r}: {req.n_tasks} tasks in {req.n_stages} "
        f"stages, widest stage ~{req.max_stage_width} cores, widest task "
        f"{req.max_task_cores} cores"
    )
    drawn = skeleton.concrete.total_compute_seconds
    print(
        f"Compute volume: estimated {req.estimated_compute_seconds / 3600:.1f}"
        f" core-hours from the samplers' means, {drawn / 3600:.1f} drawn"
    )
    print(
        f"Longest task: estimated {req.estimated_longest_task:.0f}s (the "
        "largest mean task duration of a stage)"
    )
    print("\nEstimated execution time (volume / cores + longest task):")
    for cores in (64, 128, 256):
        print(f"  on {cores:>3} cores: {estimate_tx_s(req, cores) / 3600:.2f} h")


if __name__ == "__main__":
    main()
