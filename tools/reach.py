#!/usr/bin/env python
"""Which functions of ``src/repro`` do the program's entry points reach?

Runs a committed list of entry points -- CLI commands, HTTP GETs against
a served campaign, and the examples -- in this process under a call
tracer, with forked campaign workers traced too, and writes the result
to ``.bench_out/reach.json``: per module, the functions no entry point
called and their body lines. Code that only tests reach shows up there.

    python tools/reach.py            # trace, write the JSON
    python tools/reach.py --check    # ...and gate on it

``--check`` exits 1 when an entry point fails, or when a ``src/repro``
module that defines functions has none of them reached (a module only
tests import). Stdlib only; about 30 s on a 2-CPU x86-64 host.

A function is reached when its code object was called at least once;
its body lines are the non-blank, non-comment lines from its first
body statement to its end, less the lines of functions nested in it,
which count as their own.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import shutil
import signal
import sqlite3
import sys
import threading
import time
import traceback
import urllib.request
from typing import Dict, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
OUT = os.path.join(ROOT, ".bench_out")

#: the seeded grid of the committed ``analyze`` baseline
GRID = ["--experiments", "1", "3", "--sizes", "8", "16", "--reps", "2",
        "--seed", "2016"]
BASELINE = os.path.join(ROOT, "benchmarks", "BENCH_campaign.json")

#: a fault plan file using every action kind, for ``run --faults FILE``
PLAN = {
    "seed": 3,
    "actions": [
        {"kind": "kill-pilot", "at": 1800.0, "index": 0},
        {"kind": "pilot-hazard", "rate_per_s": 1.0 / 7200.0},
        {"kind": "submit-failures", "count": 1},
        {"kind": "submit-hazard", "p_fail": 0.1},
        {"kind": "degrade-link", "at": 60.0, "site": "gordon-sim",
         "factor": 0.5, "duration": 600.0},
        {"kind": "outage", "at": 900.0, "resource": "stampede-sim",
         "duration": 1200.0},
    ],
}

ABLATIONS = ("binding", "data", "energy", "heterogeneity", "locality",
             "nonuniform", "pilots", "pool", "scheduler", "waits")

EXAMPLES = ("adaptive_rescue", "chaos_study", "mapreduce_pipeline",
            "queue_wait_study", "quickstart", "skeleton_tool",
            "strategy_comparison", "trace_replay", "workflow_import")


def entry_points(work: str) -> List[Tuple[str, str, list, Tuple[int, ...]]]:
    """``(name, kind, args, accepted exit codes)`` in run order.

    ``kind`` is ``cli`` (``repro.cli.main(args)``), ``interrupt`` (the
    same, SIGINTed once the store holds a committed run), ``serve`` (a
    ``--serve`` campaign with GETs of every endpoint) or ``example``.
    Paths under ``work`` are files earlier entries wrote.
    """
    w = lambda name: os.path.join(work, name)  # noqa: E731
    run = ["run", "--tasks", "8", "--warmup-hours", "1"]
    return [
        ("table1", "cli", ["table1"], (0,)),
        # the store campaign: SIGINT drains it, --resume finishes it
        ("campaign -j 2 (interrupted)", "interrupt",
         ["campaign", *GRID, "-q", "-j", "2", "--store", w("c.sqlite"),
          "--digests"], (0, 75)),
        ("campaign --resume", "cli",
         ["campaign", *GRID, "-q", "-j", "2", "--store", w("c.sqlite"),
          "--digests", "--resume", "--cell-timeout", "600",
          "--ledger", w("c.ndjson")], (0,)),
        ("campaign -o", "cli", ["campaign", *GRID, "-o", w("c.json")], (0,)),
        ("campaign --serve", "serve",
         ["campaign", *GRID, "-q", "--serve", "127.0.0.1:0"], (0,)),
        ("analyze", "cli",
         ["analyze", w("c.sqlite"), "--baseline", BASELINE], (0,)),
        ("analyze json", "cli",
         ["analyze", w("c.json"), "--baseline", BASELINE], (0,)),
        ("figures", "cli", ["figures", w("c.sqlite")], (0,)),
        ("report", "cli",
         ["report", w("c.sqlite"), "-o", w("report.html"),
          "--baseline", BASELINE], (0,)),
        ("tail", "cli", ["tail", w("c.sqlite")], (0,)),
        ("tail --json", "cli", ["tail", "--json", w("c.sqlite")], (0,)),
        ("watch --once", "cli",
         ["watch", w("c.sqlite"), "--once", "--no-color"], (0,)),
        ("migrate", "cli",
         ["migrate", os.path.join(ROOT, "campaign_2016.json"),
          w("m.sqlite")], (0,)),
        ("run", "cli",
         [*run, "--timeline", "--attribution", "--save", w("s.json"),
          "--telemetry", "--profile", "--trace-out", w("t.json")], (0,)),
        ("run otlp", "cli",
         [*run, "--binding", "early", "--pilots", "1", "--gaussian",
          "--trace-out", w("t.otlp.json"), "--trace-format", "otlp"],
         (0,)),
        *[(f"run --faults {p}", "cli",
           [*run, "--faults", p, "--breaker", "--watchdog-timeout", "3600",
            "--deadline", "40000", "--timeline"], (0, 1))
          for p in ("pilot-storm", "flaky-submission", "first-pilot-dies")],
        ("run --faults FILE", "cli",
         [*run, "--faults", w("plan.json"), "--fault-seed", "4",
          "--save", w("s-faults.json")], (0, 1)),
        ("probe", "cli", ["probe", "--warmup-hours", "1"], (0,)),
        ("calibrate", "cli", ["calibrate", "--hours", "2"], (0,)),
        *[(f"ablation {s}", "cli", ["ablation", s, "--reps", "1"], (0,))
          for s in ABLATIONS],
        *[(f"example {e}", "example",
           [os.path.join(ROOT, "examples", e + ".py")], (0,))
          for e in EXAMPLES],
    ]


# -- tracing ------------------------------------------------------------------


class CallTracer:
    """Records the code object of every Python call, in every thread
    and in every forked child; ``reached()`` is the union."""

    def __init__(self, work: str) -> None:
        self.work = work
        self.seen: Set[object] = set()

    def __call__(self, frame, event, arg):
        self.seen.add(frame.f_code)  # the global hook sees only "call"

    def start(self) -> None:
        os.register_at_fork(after_in_child=self._in_child)
        threading.settrace(self)
        sys.settrace(self)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def _in_child(self) -> None:
        """A forked worker keeps the tracer; it writes what it called
        to a file of its own before it ``os._exit``s, which skips
        atexit."""
        self.seen = set()
        exit_now = os._exit

        def flush_and_exit(code):
            try:
                self.stop()
                path = os.path.join(self.work, f"seen-{os.getpid()}.json")
                with open(path, "w") as fh:
                    json.dump(sorted(_keys(self.seen)), fh)
            finally:
                exit_now(code)  # never back into the parent's stack

        os._exit = flush_and_exit

    def reached(self) -> Set[Tuple[str, int]]:
        keys = _keys(self.seen)
        for fname in os.listdir(self.work):
            if fname.startswith("seen-"):
                with open(os.path.join(self.work, fname)) as fh:
                    keys |= {tuple(k) for k in json.load(fh)}
        return keys


def _keys(codes) -> Set[Tuple[str, int]]:
    """``(file, first line)`` of the code objects defined in the package."""
    return {
        (path, c.co_firstlineno) for c in codes
        for path in [os.path.realpath(c.co_filename)]
        if path.startswith(PACKAGE + os.sep)
    }


# -- running the entry points -------------------------------------------------


def _runs_in(store: str) -> int:
    try:
        conn = sqlite3.connect(f"file:{store}?mode=ro", uri=True, timeout=0.2)
        try:
            return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
        finally:
            conn.close()
    except sqlite3.Error:
        return 0


def _interrupt_when_committed(store: str, done: threading.Event) -> None:
    """SIGINT this process (a drain) once ``store`` holds a run."""
    while not done.is_set():
        if _runs_in(store) >= 1:
            os.kill(os.getpid(), signal.SIGINT)
            return
        time.sleep(0.01)


def _get_endpoints(stderr: io.StringIO, got: Dict[str, int],
                   done: threading.Event) -> None:
    """GET every endpoint of the served campaign, whose URL the CLI
    prints on stderr; ``/events`` is read until the server closes it."""
    url = None
    while url is None and not done.is_set():
        for word in stderr.getvalue().split():
            if word.startswith("http://"):
                url = word.rstrip("/")
        time.sleep(0.01)
    if url is None:
        return
    for path in ("/state.json", "/metrics", "/", "/events"):
        with urllib.request.urlopen(url + path, timeout=60) as resp:
            got[path] = len(resp.read())


def _run_cli(kind: str, args: list, log) -> int:
    from repro.cli import main

    done = threading.Event()
    helper = None
    stderr = io.StringIO()
    got: Dict[str, int] = {}
    if kind == "interrupt":
        helper = threading.Thread(
            target=_interrupt_when_committed,
            args=(args[args.index("--store") + 1], done),
        )
    elif kind == "serve":
        helper = threading.Thread(
            target=_get_endpoints, args=(stderr, got, done)
        )
    if helper is not None:
        helper.start()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(
            stderr
        ):
            rc = main(args)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        done.set()
        if helper is not None:
            helper.join()
        log.write(stderr.getvalue())
    if kind == "serve" and sorted(got) != ["/", "/events", "/metrics",
                                           "/state.json"]:
        log.write(f"GETs incomplete: {sorted(got)}\n")
        return -1
    return rc


def _run_example(path: str, log) -> int:
    argv, sys.argv = sys.argv, [path]
    sys.path.insert(0, ROOT)
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            runpy.run_path(path, run_name="__main__")
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = argv
        sys.path.remove(ROOT)


def run_entries(work: str) -> List[dict]:
    with open(os.path.join(work, "plan.json"), "w") as fh:
        json.dump(PLAN, fh)
    results = []
    for name, kind, args, ok in entry_points(work):
        t0 = time.perf_counter()
        with open(os.path.join(work, "log.txt"), "a") as log:
            log.write(f"\n== {name}: {' '.join(args)}\n")
            try:
                if kind == "example":
                    rc = _run_example(args[0], log)
                else:
                    rc = _run_cli(kind, args, log)
            except Exception:  # noqa: BLE001 - reported, not fatal
                log.write(traceback.format_exc())
                rc = -1
        wall = time.perf_counter() - t0
        results.append({"name": name, "args": args, "rc": rc,
                        "ok": rc in ok, "wall_s": round(wall, 2)})
        print(f"  {'ok ' if rc in ok else 'BAD'} {name} (rc {rc}, "
              f"{wall:.1f}s)", flush=True)
    return results


# -- function inventory -------------------------------------------------------


def _code_lines(source: List[str], lo: int, hi: int) -> Set[int]:
    return {
        n for n in range(lo, hi + 1)
        if source[n - 1].strip() and not source[n - 1].lstrip().startswith("#")
    }


def functions_of(path: str) -> List[dict]:
    """Every function in the module: qualified name, the first line of
    its code object (the first decorator's), and its own body lines."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    source = text.splitlines()
    out: List[dict] = []

    def first_line(node) -> int:
        return min([node.lineno, *(d.lineno for d in node.decorator_list)])

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = _code_lines(source, child.body[0].lineno,
                                    child.end_lineno)
                for inner in ast.walk(child):
                    if inner is not child and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        lines -= set(range(first_line(inner),
                                           inner.end_lineno + 1))
                out.append({"name": prefix + child.name,
                            "line": first_line(child), "lines": len(lines)})
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(text, path), "")
    return out


def inventory(reached: Set[Tuple[str, int]]) -> dict:
    modules = {}
    for dirpath, _, files in sorted(os.walk(PACKAGE)):
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            path = os.path.realpath(os.path.join(dirpath, fname))
            funcs = functions_of(path)
            if not funcs:
                continue
            missed = [f for f in funcs if (path, f["line"]) not in reached]
            rel = os.path.relpath(path, os.path.dirname(PACKAGE))
            modules[rel] = {
                "functions": len(funcs),
                "reached": len(funcs) - len(missed),
                "body_lines": sum(f["lines"] for f in funcs),
                "unreached_lines": sum(f["lines"] for f in missed),
                "unreached": [f"{f['name']}:{f['line']}" for f in missed],
            }
    return modules


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a failed entry point or a module "
                             "none of whose functions is reached")
    args = parser.parse_args(argv)
    output = os.path.join(OUT, "reach.json")

    work = os.path.join(OUT, "reach")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(work)  # the entry points leave their files here
    print(f"tracing entry points (log: {os.path.join(work, 'log.txt')})")
    tracer = CallTracer(work)
    tracer.start()
    try:
        entries = run_entries(work)
    finally:
        tracer.stop()

    modules = inventory(tracer.reached())
    dead = sorted(m for m, s in modules.items() if s["reached"] == 0)
    failed = [e["name"] for e in entries if not e["ok"]]
    body = sum(s["body_lines"] for s in modules.values())
    unreached = sum(s["unreached_lines"] for s in modules.values())
    doc = {
        "entries": entries,
        "body_lines": body,
        "unreached_lines": unreached,
        "unreached_modules": dead,
        "modules": modules,
    }
    with open(output, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{unreached} of {body} function-body lines unreached, in "
          f"{len(modules)} modules; wrote {output}")
    for m in dead:
        print(f"  no function reached: {m}")
    for name in failed:
        print(f"  entry point failed: {name}")
    if args.check and (dead or failed):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
