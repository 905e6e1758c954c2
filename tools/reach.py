#!/usr/bin/env python
"""Which functions and options of ``src/repro`` do the entry points use?

Runs a committed list of entry points -- CLI commands, HTTP GETs against
a served campaign, and the examples -- in this process under a call
tracer, with forked campaign workers traced too, and writes the result
to ``.bench_out/reach.json``:

- per module, the functions no entry point called and their body lines,
  and for every reached function the classes of entry point that reach
  it (``paper``, ``observatory``, ``extensions``, ``examples``);
- per class, its entries and how much of the package it reaches;
- the option report: for every reached function with defaulted
  parameters, and every ``src/repro`` dataclass built with defaulted
  fields, which of them an entry point bound to a value other than the
  default, and which classes did;
- the CLI's long flags that no entry passes to their command.

Code and options that only tests reach show up there.

    python tools/reach.py            # trace, write the JSON
    python tools/reach.py --check    # ...and gate on it

``--check`` exits 1 when an entry point fails, when a ``src/repro``
function is reached by no entry point (abstract declarations and the
:data:`KEPT` rows aside), when a ``KEPT`` row names a function an entry
reaches or none at all, or when the parser defines a long flag that no
entry passes to its command. Stdlib only; about 30 s on a 2-CPU x86-64
host.

A function is reached when its code object was called at least once;
its body lines are the non-blank, non-comment lines from its first
body statement to its end, less the lines of functions nested in it,
which count as their own. A parameter is set when, at the tracer's
``call`` event, its value is neither the default (``is``) nor equal to
it (``==`` between values of one type). Defaults are read from the
AST: literals directly, other expressions evaluated once in the
function's module globals (a default no globals resolve is not
checked).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import inspect
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

#: a link partition at the first pilot's site while its units stage
#: output: the watchdog and the deadline's final sweep cut them loose
PARTITION = {
    "seed": 1,
    "actions": [
        {"kind": "degrade-link", "at": 1500.0, "site": "stampede-sim",
         "factor": 0.0, "duration": 100000.0},
    ],
}

#: early binding's three pilots killed in turn: the first two's units
#: restart on the third and queue for its cores, and its death interrupts
#: them there (their core requests are withdrawn)
KILLS = {
    "seed": 1,
    "actions": [
        {"kind": "kill-pilot", "at": 200.0, "index": 1},
        {"kind": "kill-pilot", "at": 250.0, "index": 2},
        {"kind": "kill-pilot", "at": 400.0, "index": 0},
    ],
}

#: two outages: the second one's pilots are rerouted to the first one's
#: resource, whose breaker is half-open by then and closes on the probe
OUTAGES = {
    "seed": 1,
    "actions": [
        {"kind": "outage", "at": 300.0, "resource": "stampede-sim",
         "duration": 600.0},
        {"kind": "outage", "at": 2200.0, "resource": "comet-sim",
         "duration": 600.0},
    ],
}

ABLATIONS = ("binding", "data", "energy", "heterogeneity", "locality",
             "nonuniform", "pilots", "pool", "scheduler", "waits")

EXAMPLES = ("adaptive_rescue", "chaos_study", "mapreduce_pipeline",
            "queue_wait_study", "quickstart", "skeleton_planning",
            "skeleton_tool", "strategy_comparison", "trace_replay",
            "workflow_import")

#: the classes of entry point, in the order ``reach.json`` lists them:
#: the paper's campaign and its readers (plus ``table1`` and a plain
#: ``run``, one execution of the paper's middleware); the live views of
#: a campaign; faults, supervision, probing, calibration, migration and
#: the ablations; the examples.
CLASSES = ("paper", "observatory", "extensions", "examples")

#: the ``watch`` the served campaign's helper runs against its URL
WATCH_URL = ["watch", "--once", "--no-color", "--url"]
#: what the helper of a served campaign must have fetched
SERVED = {"/", "/events", "/metrics", "/state.json", "watch --url"}

#: why a function no entry point reaches may stay (DESIGN key decision
#: 6). "A test calls it" is not a reason.
REASONS = {
    "bench": "imported or patched by bench/",
    "claim": "called by a benchmarks/ paper-claim check",
    "reference": "the hook a reference-comparison test reads",
    "untriggerable": "a failure path no CLI input or external signal "
                     "can trigger",
}

#: the functions exempt from the per-function rule:
#: ``(module path under src/, qualified name) -> a key of REASONS``
KEPT = {
    ("repro/cluster/workload.py", "stream_cache_stats"): "bench",
    ("repro/experiments/analysis.py", "variability_ratio"): "claim",
    ("repro/experiments/analysis.py", "win_fraction"): "claim",
    ("repro/experiments/analysis.py", "significance"): "claim",
    ("repro/experiments/analysis.py", "paired_significance"): "claim",
    ("repro/cluster/workload.py", "RawDraws.state"): "reference",
    # read only by Cluster.submit's refusals (the CLI refuses an
    # oversized probe first) and the dispatch pass's integrity checks
    ("repro/cluster/job.py", "BatchJob.name"): "untriggerable",
}


def entry_points(
    work: str,
) -> List[Tuple[str, str, str, list, Tuple[int, ...]]]:
    """``(name, class, kind, args, accepted exit codes)`` in run order.

    ``kind`` is ``cli`` (``repro.cli.main(args)``), ``interrupt`` (the
    same, SIGINTed once the store holds a committed run), ``kill`` (the
    same, one worker SIGKILLed mid-cell once the store holds a committed
    run, then a ``watch --once`` of the running campaign), ``kill-all``
    (the same, every worker SIGKILLed as it appears), ``stall`` (the
    same, the worker of every attempt SIGSTOPped as it starts),
    ``serve`` (a ``--serve`` campaign with GETs of every endpoint and a
    ``watch --url`` of it) or ``example``. Paths under ``work`` are files
    earlier entries wrote.
    """
    w = lambda name: os.path.join(work, name)  # noqa: E731
    run = ["run", "--tasks", "8", "--warmup-hours", "1"]
    # one 1024-task cell (about 0.3 s on a 2-CPU x86-64 host), whose
    # worker the ``stall`` helper SIGSTOPs, so no host is fast enough to
    # meet the wall budget
    poison = ["campaign", "--experiments", "1", "--sizes", "1024", "--reps",
              "1", "-q", "--store", w("t.sqlite")]
    return [
        ("table1", "paper", "cli", ["table1"], (0,)),
        # the store campaign: SIGINT drains it, --resume finishes it
        ("campaign -j 2 (interrupted)", "paper", "interrupt",
         ["campaign", *GRID, "-q", "-j", "2", "--store", w("c.sqlite"),
          "--digests"], (0, 75)),
        ("campaign --resume", "paper", "cli",
         ["campaign", *GRID, "-q", "-j", "2", "--store", w("c.sqlite"),
          "--digests", "--resume", "--retry-errors", "--cell-timeout",
          "600", "--max-attempts", "3", "--ledger", w("c.ndjson")], (0,)),
        ("campaign -o", "paper", "cli",
         ["campaign", *GRID, "-o", w("c.json")], (0,)),
        # a cell killed past its wall budget twice is quarantined (exit
        # 1); analyze reports it, a resume with another seed is refused
        # (exit 2), and --retry-errors re-runs it
        ("campaign --cell-timeout (quarantine)", "paper", "stall",
         [*poison, "--cell-timeout", "0.001", "--max-attempts", "2"], (1,)),
        ("analyze (quarantined cell)", "paper", "cli",
         ["analyze", w("t.sqlite"), "--baseline", BASELINE], (1,)),
        ("campaign --resume --seed 7 (refused)", "paper", "cli",
         [*poison, "--resume", "--seed", "7"], (2,)),
        ("campaign --resume --retry-errors", "paper", "cli",
         [*poison, "--resume", "--retry-errors"], (0,)),
        # a worker that dies mid-cell: the cell is retried on a new one
        ("campaign -j 2 (worker killed)", "paper", "kill",
         ["campaign", "--experiments", "1", "--sizes", "1024", "--reps",
          "3", "-q", "-j", "2", "--store", w("k.sqlite")], (0,)),
        ("campaign --serve", "observatory", "serve",
         ["campaign", *GRID, "-q", "--serve", "127.0.0.1:0"], (0,)),
        ("analyze", "paper", "cli",
         ["analyze", w("c.sqlite"), "--baseline", BASELINE,
          "--baseline-key", "campaign-attribution"], (0,)),
        ("analyze json", "paper", "cli",
         ["analyze", w("c.json"), "--baseline", BASELINE, "--rel-tol",
          "0.05"], (0,)),
        # a copy of the committed baseline, so the tracked file stays put
        ("analyze --update-baseline", "paper", "cli",
         ["analyze", w("c.sqlite"), "--baseline", w("baseline.json"),
          "--update-baseline"], (0,)),
        ("figures", "paper", "cli", ["figures", w("c.sqlite")], (0,)),
        ("report", "paper", "cli",
         ["report", w("c.sqlite"), "-o", w("report.html"),
          "--baseline", BASELINE, "--baseline-key",
          "campaign-attribution"], (0,)),
        ("tail", "observatory", "cli",
         ["tail", w("c.sqlite"), "--last", "3"], (0,)),
        ("tail --json", "observatory", "cli",
         ["tail", "--json", w("c.sqlite")], (0,)),
        ("watch --once", "observatory", "cli",
         ["watch", w("c.sqlite"), "--once", "--no-color"], (0,)),
        # a finished store: the loop draws one frame and returns
        ("watch", "observatory", "cli",
         ["watch", w("c.sqlite"), "--no-color", "--interval", "0.1"], (0,)),
        ("migrate", "extensions", "cli",
         ["migrate", os.path.join(ROOT, "campaign_2016.json"),
          w("m.sqlite")], (0,)),
        # the paper's 216 runs hold outlier repetitions, and their grid
        # is not the baseline's: anomalies and drift, exit 1
        ("analyze (anomalies, drift)", "paper", "cli",
         ["analyze", w("m.sqlite"), "--baseline", BASELINE], (1,)),
        ("run", "paper", "cli",
         [*run, "--timeline", "--attribution", "--save", w("s.json"),
          "--telemetry", "--sample-interval", "300", "--profile",
          "--trace-out", w("t.json")], (0,)),
        ("run otlp", "paper", "cli",
         ["--verbose", "--log-file", w("run.log"), *run, "--seed", "7",
          "--binding", "early", "--pilots", "1", "--gaussian",
          "--trace-out", w("t.otlp.json"), "--trace-format", "otlp"],
         (0,)),
        *[(f"run --faults {p}", "extensions", "cli",
           [*run, "--faults", p, "--breaker", "--watchdog-timeout", "3600",
            "--deadline", "40000", "--timeline"], (0, 1))
          for p in ("pilot-storm", "flaky-submission", "first-pilot-dies")],
        # the outage ends and the breaker it opened goes half-open
        ("run --faults FILE", "extensions", "cli",
         ["run", "--tasks", "256", "--warmup-hours", "1", "--faults",
          w("plan.json"), "--fault-seed", "4", "--max-resubmit", "1",
          "--breaker", "--save", w("s-faults.json")], (0, 1)),
        ("run --faults (queued units interrupted)", "extensions", "cli",
         ["run", "--tasks", "64", "--warmup-hours", "1", "--binding",
          "early", "--pilots", "3", "--faults", w("kills.json")], (1,)),
        ("run --breaker (probe closes)", "extensions", "cli",
         ["run", "--tasks", "64", "--faults", w("outages.json"),
          "--breaker"], (0,)),
        ("run --watchdog-timeout (reschedule)", "extensions", "cli",
         ["run", "--tasks", "64", "--faults", w("partition.json"),
          "--deadline", "3000", "--watchdog-timeout", "300"], (1,)),
        ("run --deadline (expiry, sweep)", "extensions", "cli",
         ["run", "--tasks", "64", "--faults", w("partition.json"),
          "--deadline", "2700"], (1,)),
        ("probe", "extensions", "cli",
         ["probe", "--warmup-hours", "1", "--resources", "stampede-sim",
          "comet-sim", "--cores", "64", "--seed", "1"], (0,)),
        ("probe --cores (too big)", "extensions", "cli",
         ["probe", "--warmup-hours", "0.1", "--resources", "stampede-sim",
          "--cores", "100000"], (2,)),
        ("calibrate", "extensions", "cli",
         ["calibrate", "--hours", "2", "--seed", "1", "-j", "2"], (0,)),
        *[(f"ablation {s}", "extensions", "cli",
           ["ablation", s, "--reps", "1", "-j", "2"], (0,))
          for s in ABLATIONS],
        # every worker SIGKILLed as it appears: its cells fail (exit 1)
        ("ablation -j 2 (workers killed)", "extensions", "kill-all",
         ["ablation", "nonuniform", "--reps", "1", "-j", "2"], (1,)),
        *[(f"example {e}", "examples", "example",
           [os.path.join(ROOT, "examples", e + ".py")], (0,))
          for e in EXAMPLES],
    ]


# -- the option index -----------------------------------------------------------


def _is_dataclass_def(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        name = getattr(target, "id", getattr(target, "attr", None))
        if name == "dataclass":
            return True
    return False


def _defaulted(fn) -> List[Tuple[str, ast.expr]]:
    """``(parameter, default expression)`` of a function definition."""
    a = fn.args
    positional = [*a.posonlyargs, *a.args]
    out = list(zip([p.arg for p in positional[len(positional)
                                              - len(a.defaults):]],
                   a.defaults))
    out += [(p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def _fields(cls: ast.ClassDef) -> List[Tuple[str, ast.expr]]:
    """``(field, default expression)`` of a dataclass definition, less
    the ``field(init=False)`` ones no caller can set."""
    return [
        (stmt.target.id, stmt.value) for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
        and isinstance(stmt.target, ast.Name)
        and "ClassVar" not in ast.unparse(stmt.annotation)
        and not _init_false(stmt.value)
    ]


def _init_false(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant)
        and k.value.value is False for k in value.keywords
    )


class OptionIndex:
    """The defaulted parameters and dataclass fields of the package,
    read from its source: ``functions[(path, first line)]`` and
    ``dataclasses[(path, qualified name)]`` map to ``(qualified name or
    line, [(option, default expression)])``."""

    def __init__(self) -> None:
        self.functions: Dict[Tuple[str, int], Tuple[str, list]] = {}
        self.dataclasses: Dict[Tuple[str, str], Tuple[int, list]] = {}
        for path in _package_files():
            with open(path, encoding="utf-8") as fh:
                self._visit(ast.parse(fh.read(), path), path, "")

    def _visit(self, node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno,
                             *(d.lineno for d in child.decorator_list)])
                opts = _defaulted(child)
                if opts:
                    self.functions[(path, first)] = (prefix + child.name,
                                                     opts)
                self._visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                name = prefix + child.name
                if _is_dataclass_def(child) and _fields(child):
                    self.dataclasses[(path, name)] = (child.lineno,
                                                      _fields(child))
                self._visit(child, path, name + ".")
            else:
                self._visit(child, path, prefix)

    def settable(self) -> Dict[str, int]:
        return {
            "parameters": sum(len(o) for _, o in self.functions.values()),
            "dataclass_fields": sum(
                len(o) for _, o in self.dataclasses.values()
            ),
        }


_UNRESOLVED = object()


def _default_value(expr: ast.expr, module_globals: dict):
    try:
        return ast.literal_eval(expr)
    except ValueError:
        pass
    try:
        return eval(ast.unparse(expr), module_globals)  # noqa: S307
    except Exception:  # noqa: BLE001 - a class-scope name, say
        return _UNRESOLVED


def _differs(value, default) -> bool:
    if value is default:
        return False
    if type(value) is not type(default):
        return True
    try:
        return not bool(value == default)
    except Exception:  # noqa: BLE001 - an array compared elementwise
        return True


# -- tracing ------------------------------------------------------------------

_GENERATOR_FLAGS = 0x20 | 0x80 | 0x200  # generator, coroutine, async gen


class CallTracer:
    """Records the code object of every Python call, and the options
    bound to a non-default value, in every thread and in every forked
    child, per class of entry point (:meth:`enter`)."""

    def __init__(self, work: str, index: OptionIndex) -> None:
        self.work = work
        self.index = index
        self.cls = CLASSES[0]
        #: class -> code objects called / option keys set
        self.seen: Dict[str, Set[object]] = {c: set() for c in CLASSES}
        self.bound: Dict[str, Set[tuple]] = {c: set() for c in CLASSES}
        self._seen = self.seen[self.cls]
        self._bound = self.bound[self.cls]
        #: code object -> (option key, [(name, default)]) or None
        self._checks: Dict[object, Optional[tuple]] = {}
        #: generator code object -> the offset of its first resumption
        self._starts: Dict[object, int] = {}

    def enter(self, cls: str) -> None:
        self.cls = cls
        self._seen = self.seen[cls]
        self._bound = self.bound[cls]

    def __call__(self, frame, event, arg):
        # the global hook sees only "call"
        code = frame.f_code
        self._seen.add(code)
        try:
            checks = self._checks[code]
        except KeyError:
            checks = self._checks[code] = self._checks_for(code, frame)
        if checks is None:
            return
        if code.co_flags & _GENERATOR_FLAGS:
            # a generator's later resumptions see rebound locals
            if self._starts.setdefault(code, frame.f_lasti) != frame.f_lasti:
                return
        key, options = checks
        if key[0] == "d":
            self._bound.add(key)  # built, whatever its fields
        local = frame.f_locals
        for name, default in options:
            if name in local and _differs(local[name], default):
                self._bound.add((*key, name))

    def _checks_for(self, code, frame) -> Optional[tuple]:
        if code.co_name == "__init__" and code.co_filename == "<string>":
            return self._dataclass_checks(frame)
        path = os.path.realpath(code.co_filename)
        entry = self.index.functions.get((path, code.co_firstlineno))
        if entry is None:
            return None
        options = [
            (name, value) for name, expr in entry[1]
            for value in [_default_value(expr, frame.f_globals)]
            if value is not _UNRESOLVED
        ]
        return (("f", path, code.co_firstlineno), options)

    def _dataclass_checks(self, frame) -> Optional[tuple]:
        """A dataclass's generated ``__init__``: its defaulted fields."""
        cls = type(frame.f_locals.get("self"))
        module = sys.modules.get(cls.__module__)
        path = os.path.realpath(getattr(module, "__file__", None) or "")
        if (path, cls.__qualname__) not in self.index.dataclasses:
            return None
        # the generated ``__init__``'s own defaults: a ``default_factory``
        # field's is a sentinel the factory replaces inside the call
        params = inspect.signature(cls.__init__).parameters
        options = [
            (f.name, params[f.name].default) for f in dataclasses.fields(cls)
            if f.init and (f.default is not dataclasses.MISSING
                           or f.default_factory is not dataclasses.MISSING)
        ]
        return (("d", path, cls.__qualname__), options)

    def start(self) -> None:
        os.register_at_fork(after_in_child=self._in_child)
        threading.settrace(self)
        sys.settrace(self)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def _in_child(self) -> None:
        """A forked worker keeps the tracer; it writes what it called
        and set to a file of its own before it ``os._exit``s, which
        skips atexit. The file is renamed into place once written, so a
        worker SIGKILLed while writing it leaves no partial ``seen-``."""
        self._seen = set()
        self._bound = set()
        exit_now = os._exit

        def flush_and_exit(code):
            try:
                self.stop()
                part = os.path.join(self.work, f"part-{os.getpid()}.json")
                with open(part, "w") as fh:
                    json.dump({"class": self.cls,
                               "seen": sorted(_keys(self._seen)),
                               "bound": sorted(self._bound)}, fh)
                os.replace(part, os.path.join(
                    self.work, f"seen-{os.getpid()}.json"))
            finally:
                exit_now(code)  # never back into the parent's stack

        os._exit = flush_and_exit

    def reached(self) -> Tuple[Dict[str, Set[tuple]], Dict[str, Set[tuple]]]:
        """Per class: the ``(file, first line)`` keys called, and the
        option keys set, this process's and its children's."""
        seen = {c: _keys(codes) for c, codes in self.seen.items()}
        bound = {c: set(keys) for c, keys in self.bound.items()}
        for fname in os.listdir(self.work):
            if fname.startswith("seen-"):
                with open(os.path.join(self.work, fname)) as fh:
                    child = json.load(fh)
                seen[child["class"]] |= {tuple(k) for k in child["seen"]}
                bound[child["class"]] |= {tuple(k) for k in child["bound"]}
        return seen, bound


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
    prints on stderr, and ``watch --once`` it; ``/events`` is read until
    the server closes it."""
    from repro.cli import main

    url = None
    while url is None and not done.is_set():
        for word in stderr.getvalue().split():
            if word.startswith("http://"):
                url = word.rstrip("/")
        time.sleep(0.01)
    if url is None:
        return
    got["watch --url"] = main([*WATCH_URL, url])
    for path in ("/state.json", "/metrics", "/"):
        with urllib.request.urlopen(url + path, timeout=60) as resp:
            got[path] = len(resp.read())
    with urllib.request.urlopen(url + "/events", timeout=60) as resp:
        got["/events"] = len(resp.read())


def _open_attempt_worker(store: str) -> Optional[int]:
    """The worker pid of the newest attempt in ``store`` that no record
    has closed yet, or ``None``."""
    try:
        conn = sqlite3.connect(f"file:{store}?mode=ro", uri=True, timeout=0.2)
        try:
            rows = conn.execute(
                "SELECT kind, record FROM ledger ORDER BY seq"
            ).fetchall()
        finally:
            conn.close()
    except sqlite3.Error:
        return None
    open_: Dict[tuple, int] = {}
    for kind, raw in rows:
        record = json.loads(raw)
        cell = (record.get("exp"), record.get("n"), record.get("rep"))
        if kind == "attempt_started":
            open_.pop(cell, None)  # re-inserted last: newest
            open_[cell] = record.get("worker")
        elif kind in ("cell", "attempt_timeout", "attempt_lost"):
            open_.pop(cell, None)
    return list(open_.values())[-1] if open_ else None


def _kill_a_worker(store: str, got: Dict[str, int],
                   done: threading.Event) -> None:
    """Once ``store`` holds a committed run, SIGKILL the worker of its
    newest open attempt and ``watch --once`` the campaign, which runs
    until that cell's retry commits."""
    from repro.cli import main

    while not done.is_set():
        pid = _open_attempt_worker(store) if _runs_in(store) >= 1 else None
        if pid:
            os.kill(pid, signal.SIGKILL)
            got["killed"] = pid
            got["watch"] = main(["watch", store, "--once", "--no-color"])
            return
        time.sleep(0.01)


def _stall_workers(store: str, got: Dict[str, int],
                   done: threading.Event) -> None:
    """SIGSTOP the worker of each attempt in ``store`` as it starts: the
    cell's wall budget runs out however fast the host is, and the
    parent SIGKILLs the stopped worker."""
    stopped: Set[int] = set()
    while not done.is_set():
        pid = _open_attempt_worker(store)
        if pid and pid not in stopped:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGSTOP)
            stopped.add(pid)
            got["stopped"] = len(stopped)
        time.sleep(0.005)


def _children() -> List[int]:
    """The pids of this process's live children."""
    pids: List[int] = []
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as fh:
            pids += [int(p) for p in fh.read().split()]
    return pids


def _kill_every_worker(done: threading.Event) -> None:
    """SIGKILL each child process as it appears, until the entry ends."""
    while not done.is_set():
        for pid in _children():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        time.sleep(0.005)


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
    elif kind == "kill":
        helper = threading.Thread(
            target=_kill_a_worker,
            args=(args[args.index("--store") + 1], got, done),
        )
    elif kind == "kill-all":
        helper = threading.Thread(target=_kill_every_worker, args=(done,))
    elif kind == "stall":
        helper = threading.Thread(
            target=_stall_workers,
            args=(args[args.index("--store") + 1], got, done),
        )
    elif kind == "serve":
        helper = threading.Thread(
            target=_get_endpoints, args=(stderr, got, done)
        )
    if helper is not None:
        helper.start()
    try:
        with contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(stderr):
            rc = main(args)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        done.set()
        if helper is not None:
            helper.join()
        log.write(stderr.getvalue())
    if kind == "serve" and (
        set(got) != SERVED or got["watch --url"] != 0
    ):
        log.write(f"GETs incomplete: {got}\n")
        return -1
    if kind == "kill" and got.get("watch") != 0:
        log.write(f"no worker killed and watched: {got}\n")
        return -1
    if kind == "stall" and got.get("stopped") != int(
        args[args.index("--max-attempts") + 1]
    ):
        log.write(f"not every attempt's worker stopped: {got}\n")
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


def run_entries(work: str, tracer: CallTracer) -> List[dict]:
    for name, plan in (("plan.json", PLAN), ("partition.json", PARTITION),
                       ("outages.json", OUTAGES), ("kills.json", KILLS)):
        with open(os.path.join(work, name), "w") as fh:
            json.dump(plan, fh)
    shutil.copyfile(BASELINE, os.path.join(work, "baseline.json"))
    results = []
    for name, cls, kind, args, ok in entry_points(work):
        tracer.enter(cls)
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
        results.append({"name": name, "class": cls, "args": args, "rc": rc,
                        "ok": rc in ok, "wall_s": round(wall, 2)})
        print(f"  {'ok ' if rc in ok else 'BAD'} {name} (rc {rc}, "
              f"{wall:.1f}s)", flush=True)
    return results


def unpassed_flags(work: str) -> List[str]:
    """The parser's long flags that no entry passes, as ``"command
    --flag"`` (a top-level flag without the command): a flag counts as
    passed only to the command it was given to."""
    from repro.cli import build_parser

    top = build_parser()
    commands = next(a for a in top._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    passed = {("watch", flag) for flag in WATCH_URL}
    for _name, _cls, kind, args, _ok in entry_points(work):
        if kind == "example":
            continue
        words = [str(a).split("=")[0] for a in args]
        at = next(i for i, w in enumerate(words) if w in commands)
        passed |= {("", w) for w in words[:at]}
        passed |= {(words[at], w) for w in words[at + 1:]}
    missing = []
    for command, parser in [("", top), *commands.items()]:
        for action in parser._actions:
            options = action.option_strings
            longs = [o for o in options if o.startswith("--")]
            if longs and "--help" not in options and not any(
                (command, o) in passed for o in options
            ):
                missing.append(f"{command} {longs[0]}".strip())
    return sorted(missing)


# -- function inventory -------------------------------------------------------


def _package_files() -> List[str]:
    return [
        os.path.realpath(os.path.join(dirpath, fname))
        for dirpath, _, files in sorted(os.walk(PACKAGE))
        for fname in sorted(files) if fname.endswith(".py")
    ]


def _code_lines(source: List[str], lo: int, hi: int) -> Set[int]:
    return {
        n for n in range(lo, hi + 1)
        if source[n - 1].strip() and not source[n - 1].lstrip().startswith("#")
    }


def _is_abstract(node) -> bool:
    return any(
        getattr(d, "attr", getattr(d, "id", None)) == "abstractmethod"
        for d in node.decorator_list
    )


def functions_of(path: str) -> List[dict]:
    """Every function in the module: qualified name, the first line of
    its code object (the first decorator's), its own body lines, and
    whether it is an ``abc.abstractmethod`` declaration."""
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
                            "line": first_line(child), "lines": len(lines),
                            "abstract": _is_abstract(child)})
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(text, path), "")
    return out


def inventory(seen: Dict[str, Set[tuple]]) -> Tuple[dict, dict]:
    """Per module: the functions no entry reaches (outside abstract
    declarations and ``KEPT``), the abstract declarations, the ``KEPT``
    rows with whether an entry reaches them, and the classes reaching
    each reached function; per class: the functions and body lines it
    reaches."""
    reached = set().union(*seen.values())
    modules = {}
    classes = {c: {"functions": 0, "body_lines": 0} for c in CLASSES}
    for path in _package_files():
        funcs = functions_of(path)
        if not funcs:
            continue
        rel = _rel(path)
        kept = {f["name"]: (path, f["line"]) in reached for f in funcs
                if (rel, f["name"]) in KEPT}
        missed = [f for f in funcs if (path, f["line"]) not in reached
                  and not f["abstract"] and f["name"] not in kept]
        by: Dict[str, List[str]] = {}
        for f in funcs:
            who = [c for c in CLASSES if (path, f["line"]) in seen[c]]
            for c in who:
                classes[c]["functions"] += 1
                classes[c]["body_lines"] += f["lines"]
            if who:
                by[f"{f['name']}:{f['line']}"] = who
        modules[rel] = {
            "functions": len(funcs),
            "reached": sum((path, f["line"]) in reached for f in funcs),
            "body_lines": sum(f["lines"] for f in funcs),
            "unreached_lines": sum(f["lines"] for f in missed),
            "unreached": [f"{f['name']}:{f['line']}" for f in missed],
            "abstract": [f["name"] for f in funcs if f["abstract"]],
            "kept": {name: {"reason": KEPT[(rel, name)], "reached": hit}
                     for name, hit in sorted(kept.items())},
            "reached_by": by,
        }
    return modules, classes


def stale_kept(modules: dict) -> List[str]:
    """``KEPT`` rows that name no function, or one an entry reaches."""
    listed = {(m, name) for m, s in modules.items() for name in s["kept"]}
    out = [f"{m}:{name} (no such function)" for m, name in sorted(KEPT)
           if (m, name) not in listed]
    out += [f"{m}:{name} (reached)" for m, s in sorted(modules.items())
            for name, row in s["kept"].items() if row["reached"]]
    return out


def option_report(index: OptionIndex, seen: Dict[str, Set[tuple]],
                  bound: Dict[str, Set[tuple]]) -> dict:
    """Per module, per reached function (``name:line``) or built
    dataclass (``name``): each defaulted option and the classes that set
    it (empty: never set by any entry point)."""
    reached = set().union(*seen.values())
    setters: Dict[tuple, List[str]] = {}
    built = set()
    for c in CLASSES:
        for key in bound[c]:
            if len(key) == 3:
                built.add(key[1:])
            else:
                setters.setdefault(key, []).append(c)
    modules: Dict[str, dict] = {}
    traced = never = 0

    def add(path, label, kind, ident, options):
        nonlocal traced, never
        row = {}
        for name, _expr in options:
            row[name] = setters.get((kind, path, ident, name), [])
            traced += 1
            never += not row[name]
        modules.setdefault(_rel(path), {})[label] = row

    for (path, line), (name, options) in sorted(index.functions.items()):
        if (path, line) in reached:
            add(path, f"{name}:{line}", "f", line, options)
    for (path, name), (_line, options) in sorted(index.dataclasses.items()):
        if (path, name) in built:
            add(path, name, "d", name, options)
    return {"settable": index.settable(), "traced": traced,
            "never_set": never, "modules": modules}


def _rel(path: str) -> str:
    return os.path.relpath(path, os.path.dirname(PACKAGE))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a failed entry point, a function "
                             "no entry reaches (abstract declarations and "
                             "KEPT aside), a stale KEPT row, or a CLI flag "
                             "no entry passes")
    args = parser.parse_args(argv)
    output = os.path.join(OUT, "reach.json")

    t0 = time.perf_counter()
    work = os.path.join(OUT, "reach")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(work)  # the entry points leave their files here
    print(f"tracing entry points (log: {os.path.join(work, 'log.txt')})")
    index = OptionIndex()
    tracer = CallTracer(work, index)
    tracer.start()
    try:
        entries = run_entries(work, tracer)
    finally:
        tracer.stop()

    seen, bound = tracer.reached()
    modules, classes = inventory(seen)
    for c in CLASSES:
        classes[c]["entries"] = [e["name"] for e in entries
                                 if e["class"] == c]
    options = option_report(index, seen, bound)
    failed = [e["name"] for e in entries if not e["ok"]]
    unpassed = unpassed_flags(work)
    stale = stale_kept(modules)
    body = sum(s["body_lines"] for s in modules.values())
    unreached = sum(s["unreached_lines"] for s in modules.values())
    missed = [f"{m}:{f}" for m, s in sorted(modules.items())
              for f in s["unreached"]]
    doc = {
        "entries": entries,
        "body_lines": body,
        "unreached_lines": unreached,
        "unreached_functions": missed,
        "stale_kept": stale,
        "classes": classes,
        "modules": modules,
        "options": options,
        "unpassed_flags": unpassed,
    }
    with open(output, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(missed)} functions ({unreached} of {body} body lines) "
          f"unreached outside abstract declarations and KEPT, in "
          f"{len(modules)} modules; {time.perf_counter() - t0:.0f} s; "
          f"wrote {output}")
    for c in CLASSES:
        print(f"  {c}: {classes[c]['body_lines']} body lines reached "
              f"by {len(classes[c]['entries'])} entries")
    settable = options["settable"]
    print(f"{settable['parameters']} defaulted parameters and "
          f"{settable['dataclass_fields']} defaulted dataclass fields; "
          f"{options['never_set']} of the {options['traced']} traced "
          "never set")
    for name in missed:
        print(f"  no entry reaches: {name}")
    for row in stale:
        print(f"  stale KEPT row: {row}")
    for name in failed:
        print(f"  entry point failed: {name}")
    for flag in unpassed:
        print(f"  no entry passes: {flag}")
    if args.check and (missed or stale or failed or unpassed):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
