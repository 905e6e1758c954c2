"""Compare two commits with this benchmark, in alternating pairs.

    python -m bench.compare PARENT CHANGE [--pairs 10] [--workload NAME]

Each commit is exported with ``git archive`` into its own directory and
given *this* checkout's ``bench/`` and ``BENCHMARK.json``, so both sides
run identical benchmark code with identical settings: the three timed
repetitions of ``--trace 0``. Pair ``i`` runs both sides at seed
``--seed0 + i``; which side runs first alternates from pair to pair.

For each workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither),
and a verdict: ``better`` when the change won at least 9 in 10 pairs and
the medians differ by more than the parent's quartile spread; ``worse``
when the change's median is worse than the parent's by more than the
metric's bound; ``unresolved`` when either side's spread exceeds the
bound (unless every change run beats every parent run); otherwise
``no regression``. Each side's failed cells (the ``failed`` and
``attempted`` counts of its result lines) are printed too: when the
change fails more cells than the parent, no metric of that workload is
``better``, because failed cells drop out of the rates and walls. It
also diffs the per-cell digests of every pair. Exits 1 when a metric is
worse, the change fails more cells, or a digest differs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from typing import Dict, List, Sequence, Tuple

from . import OUT_ROOT, ROOT

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def export(rev: str, dest: str) -> str:
    """``rev``'s tracked files in ``dest``, with this checkout's benchmark."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, check=True, stdout=subprocess.PIPE,
    ).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    shutil.rmtree(os.path.join(dest, "bench"), ignore_errors=True)
    shutil.copytree(
        BENCH_DIR, os.path.join(dest, "bench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return dest


def run_once(
    tree: str, workload: str, seed: int, out: str
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """One benchmark run in ``tree``: (metric values, per-cell digests).

    The values also hold ``correct`` (1 or 0), ``failed`` and
    ``attempted`` from the result line.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", workload,
         "--seed", str(seed), "--trace", "0",
         "--out", out],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(
            f"{tree}: {workload} seed {seed} exited with {proc.returncode}"
        )
    result = json.loads(lines[-1])
    with open(os.path.join(out, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)["cells"]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values["correct"] = float(result["correct"])
    values["failed"] = float(result["failed"])
    values["attempted"] = float(result["attempted"])
    return values, digests


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float,
    more_failures: bool = False,
) -> Tuple[str, float]:
    """(verdict, share of pairs the change won) for one workload x metric.

    ``more_failures``: the change failed more cells than the parent, so
    a gain may only be cells that failed fast; it is never ``better``.
    """
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (b - a) > 0 for a, b in zip(parent, change)) / len(parent)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    spread = max((pq3 - pq1) / abs(pmed), (cq3 - cq1) / abs(cmed))
    dominates = all(sign * (b - a) > 0 for a in parent for b in change)
    if won >= 0.9 and sign * (cmed - pmed) > pq3 - pq1:
        return ("unresolved" if more_failures else "better"), won
    if spread > bound and not dominates:
        return "unresolved", won
    if sign * (cmed - pmed) < -bound * abs(pmed):
        return "worse", won
    return "no regression", won


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.compare")
    parser.add_argument("parent", help="the commit to compare against")
    parser.add_argument("change", help="the commit claiming a change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload (repeatable; default: BENCHMARK.json's)")
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("at least 10 pairs are needed to claim anything")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    workdir = args.workdir or os.path.join(
        OUT_ROOT, time.strftime("compare-%Y%m%d-%H%M%S")
    )
    trees = {
        "parent": export(args.parent, os.path.join(workdir, "parent")),
        "change": export(args.change, os.path.join(workdir, "change")),
    }
    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        side: {w: {} for w in workloads} for side in trees
    }
    digest_diffs: List[str] = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for wl in workloads:
            digests = {}
            for side in order:
                out = os.path.join(workdir, f"{side}-{wl}-{i:02d}")
                vals, digests[side] = run_once(trees[side], wl, seed, out)
                for name, v in vals.items():
                    values[side][wl].setdefault(name, []).append(v)
                print(f"pair {i} {wl} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in vals.items()),
                      file=sys.stderr)
            differ = sorted(
                k for k in set(digests["parent"]) & set(digests["change"])
                if digests["parent"][k] != digests["change"][k]
            )
            if differ:
                digest_diffs.append(
                    f"{wl} seed {seed}: {len(differ)} cell(s) differ, "
                    f"first {', '.join(differ[:5])}"
                )
    failed = bool(digest_diffs)
    print(f"{args.pairs} pairs, parent {args.parent}, change {args.change}")
    for wl in workloads:
        print(f"\n{wl}")
        failures = {
            s: (sum(values[s][wl]["failed"]), sum(values[s][wl]["attempted"]))
            for s in trees
        }
        print("  failed cells: " + ", ".join(
            f"{s} {f:.0f}/{a:.0f}" for s, (f, a) in failures.items()
        ))
        more_failures = failures["change"][0] > failures["parent"][0]
        if more_failures:
            failed = True
            print("  the change fails more cells than the parent")
        print(f"  {'metric':<18} {'parent q1/med/q3':>28} "
              f"{'change q1/med/q3':>28} {'won':>5}  verdict")
        for m in spec["end_to_end"]:
            p = values["parent"][wl].get(m["name"])
            c = values["change"][wl].get(m["name"])
            if not p or not c:
                print(f"  {m['name']:<18} missing")
                continue
            v, won = verdict(p, c, m["better"], m["bound"], more_failures)
            failed |= v == "worse"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"  {m['name']:<18} {fmt(quartiles(p)):>28} "
                  f"{fmt(quartiles(c)):>28} {won:>5.0%}  {v}")
        bad = [s for s in trees if min(values[s][wl].get("correct", [0])) < 1]
        if bad:
            failed = True
            print(f"  incorrect runs on: {', '.join(bad)}")
    print("\ndigests: " + ("identical" if not digest_diffs else ""))
    for line in digest_diffs:
        print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
