"""Command line: ``python -m bench run|reference``.

``run`` measures the workloads and prints every metric by name with its
unit; its last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the per-layer metrics that
``BENCHMARK.json`` lists when traced (``--trace 1``, the default), its
end-to-end metrics otherwise. It exits 1 when a completed
cell's result is wrong and 2 when nothing could be measured.
``reference`` regenerates ``bench/reference_digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from . import SRC
from .harness import (
    REFERENCE_PATH,
    REPS,
    BenchError,
    cell_key,
    listed_metrics,
    render,
    result_line,
    run_benchmark,
)
from .layers import LayerError
from .workloads import REP_SEED_STRIDE, WORKLOADS, rep_seed


def cmd_run(args: argparse.Namespace) -> int:
    trace = bool(args.trace)
    workloads = [WORKLOADS[n] for n in (args.workload or list(WORKLOADS))]
    try:
        listed_metrics(trace)  # fail before measuring without BENCHMARK.json
        report = run_benchmark(workloads, seed=args.seed, trace=trace, out=args.out)
    except (BenchError, LayerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(report))
    print(result_line(report, trace))
    return 0 if report.correct else 1


def _digest(cell, seed: int, queue: Optional[str]) -> str:
    from repro.experiments import TABLE1, run_single

    saved = os.environ.pop("REPRO_DES_QUEUE", None)
    if queue is not None:
        os.environ["REPRO_DES_QUEUE"] = queue
    try:
        exp_id, n_tasks, rep = cell
        return run_single(
            TABLE1[exp_id], n_tasks, rep, campaign_seed=seed
        ).attribution_digest
    finally:
        os.environ.pop("REPRO_DES_QUEUE", None)
        if saved is not None:
            os.environ["REPRO_DES_QUEUE"] = saved


def cmd_reference(args: argparse.Namespace) -> int:
    """Digest every cell of every workload under the default queue.

    Covers the campaign seeds of all timed repetitions of a run at
    ``--seed``. Each cell also runs with ``REPRO_DES_QUEUE=heap``; the
    two digests must agree. A cell that raises under the default queue
    takes its digest from the heap run and is listed in ``heap_only``.
    """
    sys.path.insert(0, SRC)
    cells = sorted(
        (rep_seed(args.seed, k), c)
        for k in range(REPS)
        for c in {c for w in WORKLOADS.values() for c in w.cells()}
    )
    digests: Dict[str, str] = {}
    heap_only: List[str] = []
    for seed, cell in cells:
        key = cell_key(seed, cell)
        heap = _digest(cell, seed, "heap")
        try:
            default = _digest(cell, seed, None)
        except Exception as exc:  # noqa: BLE001 - recorded in the file
            print(f"{key}: default queue raised {type(exc).__name__}: {exc}; "
                  "using the heap digest", file=sys.stderr)
            heap_only.append(key)
            digests[key] = heap
            continue
        if default != heap:
            print(f"error: {key}: default-queue digest {default} differs from "
                  f"heap digest {heap}", file=sys.stderr)
            return 1
        digests[key] = default
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump({
            "seed": args.seed,
            "campaign_seeds": [rep_seed(args.seed, k) for k in range(REPS)],
            "queue": "default (REPRO_DES_QUEUE unset)",
            "heap_only": heap_only,
            "heap_checked_equal": len(cells) - len(heap_only),
            "cells": digests,
        }, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {args.output} "
          f"({len(heap_only)} from the heap queue only)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure the workloads")
    run.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=2016,
                     help="campaign seed of the first repetition; repetition "
                          f"k runs at seed + k*{REP_SEED_STRIDE} (default 2016)")
    run.add_argument("--seconds", type=float, default=None,
                     help="accepted from benchmark runners that pass "
                          "BENCHMARK.json's run_seconds; a run always "
                          f"measures {REPS} timed repetitions per workload, "
                          "which the workloads are sized to fit in about "
                          "that long")
    run.add_argument("--trace", type=int, choices=(0, 1), default=1,
                     help="1 (default): add a traced repetition per workload "
                          "for the per-layer metrics; 0: timed repetitions only")
    run.add_argument("--out", default=None,
                     help="output directory (default: a new one under .bench_out/)")
    run.set_defaults(func=cmd_run)
    ref = sub.add_parser("reference", help="regenerate the reference digests")
    ref.add_argument("--seed", type=int, default=2016)
    ref.add_argument("--output", default=REFERENCE_PATH)
    ref.set_defaults(func=cmd_reference)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
