"""Command-line interface: run campaigns, regenerate figures, probe queues.

Usage::

    python -m repro campaign --reps 4 --seed 2016 -o campaign.json
    python -m repro figures campaign.json
    python -m repro table1
    python -m repro ablation pilots --reps 3
    python -m repro probe --resources stampede-sim comet-sim --cores 256
    python -m repro run --tasks 128 --binding late --pilots 3
    python -m repro analyze campaign.json --baseline benchmarks/BENCH_campaign.json
    python -m repro report campaign.json -o report.html
    python -m repro tail campaign.sqlite
    python -m repro tail campaign.sqlite --json
    python -m repro campaign --reps 4 --store campaign.sqlite
    python -m repro campaign --reps 4 --store campaign.sqlite --resume
    python -m repro campaign --reps 4 --store campaign.sqlite --serve :8765
    python -m repro watch campaign.sqlite
    python -m repro watch --url http://127.0.0.1:8765
    python -m repro migrate campaign_2016.json campaign.sqlite

Every campaign records through a sqlite result store (``--store FILE``,
or a private in-memory one); ``-o`` exports a JSON artifact and
``--ledger`` an NDJSON copy of the store's campaign log.
``analyze``, ``figures`` and ``report`` open either kind of file
through one reader, migrating a JSON artifact into memory first;
``tail`` and ``watch`` fold the campaign log of a store.

Global flags: ``-v/--verbose`` (repeatable: INFO, then DEBUG) and
``--log-file FILE`` (full DEBUG trail regardless of terminal verbosity).
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import time
from typing import Optional, Sequence

import os

from .cluster import PRESETS
from .core import Binding, PlannerConfig, RecoveryPolicy
from .experiments import (
    EXIT_RESUMABLE,
    CampaignInterrupted,
    CampaignMonitor,
    CampaignStore,
    CellProgress,
    GridError,
    IncompatibleResumeError,
    MonitorServer,
    ResiliencePolicy,
    RunLedger,
    StoreInUseError,
    binding_rationale_study,
    build_environment,
    campaign_fingerprint,
    campaign_fingerprint_from_store,
    check_fresh,
    compare_fingerprints,
    data_affinity_ablation,
    detect_anomalies,
    flag_anomalies,
    heterogeneity_ablation,
    is_store,
    locality_study,
    emergent_vs_sampled_study,
    energy_study,
    migrate_json,
    nonuniform_tasks_study,
    open_campaign,
    parse_serve_spec,
    render_dashboard,
    state_from_url,
    pilot_count_sweep,
    pool_scaling_study,
    render_ablation,
    store_summary,
    render_all,
    write_ndjson,
    render_tail,
    render_table1,
    run_campaign,
    scheduler_ablation,
)
from .experiments import calibrate_all, render_calibration
from .experiments.io import save_campaign
from .experiments.runner import cost_eta
from .logutil import setup_logging
from .faults import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    PRESET_NAMES,
    preset_plan,
)
from .pilot import ComputePilotDescription, PilotManager
from .skeleton import PAPER_TASK_COUNTS, SkeletonAPI, paper_skeleton


def _load_fault_plan(spec: str, seed: Optional[int]) -> FaultPlan:
    """Resolve a --faults value: a JSON plan file or a preset name."""
    if os.path.exists(spec) or spec.endswith(".json"):
        plan = FaultPlan.load(spec)
        if seed is not None:
            plan = FaultPlan(seed=seed, actions=plan.actions)
        return plan
    return preset_plan(spec, seed=seed if seed is not None else 0)


def _cmd_table1(args: argparse.Namespace) -> int:
    print(render_table1())
    return 0


class _EtaProgress:
    """Progress line with the cost-weighted ETA of ``runner.cost_eta``,
    the same one ``repro tail``, ``repro watch`` and ``/metrics`` show.
    """

    def __init__(self, grid, stream=None) -> None:
        self._grid = list(grid)
        self._walls: dict = {}
        self._stream = stream if stream is not None else sys.stderr

    def __call__(self, progress: CellProgress) -> None:
        self._walls[progress.cell] = progress.wall_s
        eta = f", ETA {cost_eta(self._grid, self._walls):.0f}s"
        exp_id, n_tasks, rep = progress.cell
        state = "ok" if progress.ok else "ERROR"
        print(
            f"\r[{progress.done}/{progress.total}] "
            f"exp{exp_id} n={n_tasks} rep={rep} {state} "
            f"({progress.wall_s:.1f}s){eta}   ",
            end="", file=self._stream, flush=True,
        )
        if progress.done >= progress.total:
            print(file=self._stream)


def _cmd_campaign(args: argparse.Namespace) -> int:
    sizes = tuple(args.sizes) if args.sizes else PAPER_TASK_COUNTS
    grid = [
        (exp_id, n, rep)
        for exp_id in args.experiments
        for n in sizes
        for rep in range(args.reps)
    ]
    if args.resume and not args.store:
        print("error: --resume requires --store", file=sys.stderr)
        return 2
    if args.store and os.path.exists(args.store) and not is_store(args.store):
        print(
            f"error: {args.store} exists and is not a campaign store",
            file=sys.stderr,
        )
        return 2
    if args.resume and not os.path.exists(args.store):
        print(
            f"error: --resume: no store at {args.store}; nothing to "
            "resume (drop --resume to start a fresh campaign)",
            file=sys.stderr,
        )
        return 2
    serve_at = None
    if args.serve is not None:
        try:
            serve_at = parse_serve_spec(args.serve)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    on_progress = None if args.quiet else _EtaProgress(grid)
    # --serve reads the store through a connection of its own, which an
    # in-memory database cannot give it: without --store the campaign
    # then records into a temporary file, deleted on exit.
    scratch = None
    path = args.store
    if path is None and serve_at is not None:
        scratch = tempfile.mkdtemp(prefix="repro-serve-")
        path = os.path.join(scratch, "campaign.sqlite")
    try:
        store = CampaignStore(path or ":memory:")
    except ValueError as exc:  # a store of another format
        print(f"error: {exc}", file=sys.stderr)
        return 2
    monitor = server = ledger = None
    try:
        if not args.resume:
            # refused before a server binds
            try:
                check_fresh(store)
            except StoreInUseError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        policy = ResiliencePolicy(
            cell_timeout_s=args.cell_timeout,
            max_attempts=args.max_attempts,
            retry_errors=args.retry_errors,
        )
        # --serve: observation-only plane. A monitor folds the store's
        # campaign log behind /metrics, /events (SSE) and /state.json;
        # it only reads the store, so digests are unaffected.
        if serve_at is not None:
            monitor = CampaignMonitor(path)
            try:
                server = MonitorServer(
                    monitor, host=serve_at[0], port=serve_at[1]
                ).start()
            except OSError as exc:
                print(f"error: cannot bind --serve {args.serve}: {exc}",
                      file=sys.stderr)
                return 2
            print(f"monitor serving on {server.url} "
                  "(/metrics /events /state.json)", file=sys.stderr)
        # every record lands in the store's ledger table; --ledger adds
        # an NDJSON export of that log, written when the ledger closes.
        ledger = RunLedger(store, path=args.ledger)
        result = run_campaign(
            experiments=tuple(args.experiments),
            task_counts=sizes,
            reps=args.reps,
            campaign_seed=args.seed,
            verbose=False,
            jobs=args.jobs,
            collect_digests=args.digests,
            on_progress=on_progress,
            ledger=ledger,
            store=store,
            resume=args.resume,
            resilience=policy,
        )
    except IncompatibleResumeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CampaignInterrupted as exc:
        print(f"\ninterrupted: {exc}", file=sys.stderr)
        if args.store:
            print(
                f"resume with: repro campaign --store {args.store} --resume",
                file=sys.stderr,
            )
        else:
            print(
                "no --store was given, so the completed cells were not "
                "persisted; re-run with --store to make the campaign "
                "resumable",
                file=sys.stderr,
            )
        return EXIT_RESUMABLE
    finally:
        if ledger is not None:
            ledger.close()
        if server is not None:
            server.stop()
        if monitor is not None:
            monitor.close()
        store.close()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    if args.ledger:
        print(f"run ledger exported to {args.ledger}")
    for err in result.errors:
        print(
            f"error: exp {err.exp_id} n={err.n_tasks} rep={err.rep}: "
            f"{err.error}",
            file=sys.stderr,
        )
    if args.output:
        save_campaign(result, args.output)
        print(f"saved {len(result.runs)} runs to {args.output}")
    if args.store:
        print(f"stored {len(result.runs)} runs in {args.store}")
    if not args.output and not args.store:
        print(render_all(result))
    return 0 if not result.errors else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    with open_campaign(args.campaign) as store:
        print(render_all(store.load_campaign()))
    return 0


#: key under which the campaign fingerprint lives in a BENCH_*.json file.
BASELINE_KEY = "campaign-attribution"


def _read_baseline(path: str, key: str) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh).get(key)


def _write_baseline(path: str, key: str, fingerprint: dict) -> None:
    """Merge the fingerprint into the bench file, preserving other keys."""
    data = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data[key] = fingerprint
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


def _cmd_analyze(args: argparse.Namespace) -> int:
    # the fingerprint streams cell by cell through the store's index;
    # the anomaly scan still needs the materialized view.
    with open_campaign(args.campaign) as store:
        fingerprint = campaign_fingerprint_from_store(store)
        result = store.load_campaign()
        summary = store_summary(store)
    rc = 0

    print(
        f"campaign: {len(result.runs)} runs, {len(result.errors)} errors, "
        f"fingerprint {fingerprint['digest'][:12]}"
    )
    if summary["attempts"]:
        print(
            f"execution history: {summary['attempts']} attempt(s) "
            f"recorded, {summary['stale_leases']} stale lease(s)"
        )
    if summary["interrupted"]:
        print(
            "store is marked interrupted (cleanly drained mid-campaign); "
            f"resume with `repro campaign --store {args.campaign} --resume`"
        )
    elif summary["stale_leases"]:
        print(
            "stale leases mean a previous run died in flight; "
            f"`repro campaign --store {args.campaign} --resume` reclaims "
            "them and finishes the grid"
        )
    for key, cell in sorted(fingerprint["cells"].items()):
        shares = cell["shares"]
        top = max(shares, key=shares.get)
        print(
            f"  cell {key:>8}: TTC {cell['ttc_mean']:>9.0f}s, "
            f"throughput {cell['throughput']:>7.1f} tasks/h, "
            f"dominant {top} ({shares[top]:.0%})"
        )
    if result.errors:
        rc = 1
        for err in result.errors:
            print(
                f"error: exp {err.exp_id} n={err.n_tasks} rep={err.rep}: "
                f"{err.error}",
                file=sys.stderr,
            )

    anomalies = detect_anomalies(result)
    for anomaly in anomalies:
        print(f"anomaly: {anomaly.describe()}")
    if not anomalies:
        print("no within-campaign anomalies (robust z)")

    if args.update_baseline:
        _write_baseline(args.baseline, args.baseline_key, fingerprint)
        print(f"baseline {args.baseline_key!r} written to {args.baseline}")
        return rc

    baseline = _read_baseline(args.baseline, args.baseline_key)
    if baseline is None:
        print(
            f"no {args.baseline_key!r} baseline in {args.baseline}; "
            "run with --update-baseline to record one",
            file=sys.stderr,
        )
        return 2
    findings = compare_fingerprints(
        fingerprint, baseline, rel_tol=args.rel_tol
    )
    if findings:
        rc = 1
        for f in findings:
            print(f"DRIFT {f.describe()}", file=sys.stderr)
        print(
            f"{len(findings)} drift finding(s) vs baseline "
            f"{baseline.get('digest', '?')[:12]}",
            file=sys.stderr,
        )
    else:
        print(
            f"no drift vs baseline {baseline.get('digest', '?')[:12]} "
            f"(tolerance {args.rel_tol:.0%})"
        )
    return rc


def _report_data(result, args) -> dict:
    """Assemble the pure-data dict `telemetry.report.render_html` takes."""
    from .telemetry.causality import COMPONENTS

    fingerprint = campaign_fingerprint(result)
    cells = [
        {
            "label": f"exp{key.replace(':', ' n=')}",
            "ttc": cell["ttc_mean"],
            "components": cell["components"],
        }
        for key, cell in sorted(
            fingerprint["cells"].items(),
            key=lambda kv: tuple(int(x) for x in kv[0].split(":")),
        )
    ]

    tw_by_resource: dict = {}
    for run in result.runs:
        for resource, wait in zip(run.resources, run.pilot_waits):
            if isinstance(wait, (int, float)) and not math.isnan(wait):
                tw_by_resource.setdefault(resource, []).append(float(wait))

    anomalies = [
        {"cell": a.cell, "kind": a.kind, "detail": a.detail}
        for a in detect_anomalies(result)
    ]
    # per-repetition flags, as the run ledger records them, derived from
    # the record itself: a retried cell's superseded error is not in it.
    flagged = [
        (r.exp_id, r.n_tasks, r.rep, ",".join(flag_anomalies(r)))
        for r in result.runs
    ] + [(e.exp_id, e.n_tasks, e.rep, "error") for e in result.errors]
    for exp_id, n_tasks, rep, kind in sorted(flagged):
        if kind:
            anomalies.append({
                "cell": f"{exp_id}:{n_tasks}", "kind": kind,
                "detail": f"rep {rep}",
            })

    data: dict = {
        "title": "Causal TTC attribution report",
        "subtitle": (
            f"{len(result.runs)} runs, campaign seed "
            f"{result.meta.get('campaign_seed', '?')}, fingerprint "
            f"{fingerprint['digest'][:12]}"
        ),
        "summary": [
            ("runs", len(result.runs)),
            ("errors", len(result.errors)),
            ("experiments", ", ".join(
                str(e) for e in result.meta.get("experiments", ())
            ) or "?"),
            ("task counts", ", ".join(
                str(n) for n in result.meta.get("task_counts", ())
            ) or "?"),
            ("fingerprint", fingerprint["digest"]),
        ],
        "cells": cells,
        "tw_by_resource": tw_by_resource,
        "anomalies": anomalies,
    }

    # Critical path: replay the slowest repetition from its coordinates
    # (deterministic — the campaign file stores the seeds' provenance).
    meta = result.meta
    if result.runs and meta.get("campaign_seed") is not None:
        from .experiments.campaign import TABLE1, run_cell_report

        slowest = max(
            result.runs, key=lambda r: (r.ttc, r.exp_id, r.n_tasks, r.rep)
        )
        report, _, _ = run_cell_report(
            TABLE1[slowest.exp_id], slowest.n_tasks, slowest.rep,
            campaign_seed=int(meta["campaign_seed"]),
            resource_pool=meta.get("resource_pool"),
        )
        att = report.attribution()
        data["critical_path"] = [seg.as_dict() for seg in att.critical_path]
        data["summary"].append((
            "critical path of",
            f"exp{slowest.exp_id} n={slowest.n_tasks} rep={slowest.rep} "
            f"(TTC {slowest.ttc:.0f}s)",
        ))
        data["summary"].append((
            "path components",
            ", ".join(
                f"{name} {seconds:.0f}s"
                for name, seconds in att.path_by_component().items()
                if seconds > 0 and name in COMPONENTS
            ),
        ))

    if args.baseline:
        baseline = _read_baseline(args.baseline, args.baseline_key)
        if baseline is not None:
            data["drift"] = [
                {
                    "cell": f.cell, "metric": f.metric,
                    "baseline": f.baseline, "current": f.current,
                    "rel": f.rel_change,
                }
                for f in compare_fingerprints(fingerprint, baseline)
            ]
    return data


def _cmd_report(args: argparse.Namespace) -> int:
    from .telemetry.report import save_html

    with open_campaign(args.campaign) as store:
        data = _report_data(store.load_campaign(), args)
        if store.readonly:  # provenance of a store file, not of a JSON
            data["store"] = store_summary(store)
    save_html(data, args.output)
    print(f"report written to {args.output}")
    return 0


def _not_a_store(path: str) -> bool:
    """True (after an error line) unless ``path`` is a campaign store."""
    if is_store(path):
        return False
    print(
        f"error: {path} is not a campaign store; tail and watch read the "
        "store written by `repro campaign --store`",
        file=sys.stderr,
    )
    return True


def _cmd_tail(args: argparse.Namespace) -> int:
    if _not_a_store(args.store):
        return 2
    if args.json:
        # machine-readable: every record, one JSON object per line, in
        # log order with stable keys (--last does not apply) — the same
        # lines `repro campaign --ledger` exports.
        with CampaignStore(args.store, readonly=True) as store:
            write_ndjson(store.ledger_records(), sys.stdout)
        return 0
    with CampaignMonitor(args.store) as monitor:
        print(render_tail(monitor, last=args.last))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    if (args.source is None) == (args.url is None):
        print(
            "error: watch needs exactly one of STORE or --url",
            file=sys.stderr,
        )
        return 2
    if args.source is not None and _not_a_store(args.source):
        return 2
    color = not args.no_color and sys.stdout.isatty()
    # one monitor for the whole watch: each tick folds only new rows
    monitor = CampaignMonitor(args.source) if args.source else None

    def fetch():
        if monitor is None:
            return state_from_url(args.url)
        return monitor.state()

    try:
        if args.once:
            print(render_dashboard(fetch(), color=color))
            return 0
        while True:
            try:
                state = fetch()
            except OSError as exc:
                state = None
                print(f"(source unavailable: {exc})", file=sys.stderr)
            if state is not None:
                frame = render_dashboard(state, color=color)
                # clear screen + home, then the frame; plain reprint
                # when colors (and thus ANSI control) are off.
                if color:
                    print(f"\x1b[2J\x1b[H{frame}", flush=True)
                else:
                    print(frame + "\n", flush=True)
                if state.get("finished"):
                    return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print(file=sys.stderr)
        return 0
    finally:
        if monitor is not None:
            monitor.close()


def _cmd_migrate(args: argparse.Namespace) -> int:
    if is_store(args.source):
        print(
            f"{args.source} is already a campaign store; nothing to migrate",
            file=sys.stderr,
        )
        return 2
    try:
        store = migrate_json(args.source, args.store)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot migrate {args.source!r}: {exc}", file=sys.stderr)
        return 2
    with store:
        fingerprint = campaign_fingerprint_from_store(store)
        print(
            f"migrated {store.run_count()} runs, "
            f"{store.error_count()} errors from {args.source} "
            f"into {args.store}"
        )
        print(f"campaign fingerprint {fingerprint['digest'][:12]}")
    return 0


_ABLATIONS = {
    "pilots": (pilot_count_sweep, "TTC vs number of pilots"),
    "scheduler": (scheduler_ablation, "backfill vs round-robin"),
    "heterogeneity": (heterogeneity_ablation, "diverse vs homogeneous pool"),
    "data": (data_affinity_ablation, "data-aware resource selection"),
    "pool": (pool_scaling_study, "17-resource synthetic pool scaling"),
    "nonuniform": (nonuniform_tasks_study, "mixed 1-16-core task sizes"),
    "binding": (binding_rationale_study, "the couplings Table I discards"),
    "energy": (energy_study, "TTC vs energy per strategy"),
    "locality": (locality_study, "data-locality unit scheduling"),
}


def _cmd_ablation(args: argparse.Namespace) -> int:
    if args.study == "waits":
        print(
            emergent_vs_sampled_study(
                n_pairs=max(4, args.reps * 3), jobs=args.jobs
            ).render()
        )
        return 0
    fn, title = _ABLATIONS[args.study]
    points = fn(reps=args.reps, jobs=args.jobs)
    print(render_ablation(f"Ablation — {title}", points))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    results = calibrate_all(seed=args.seed, hours=args.hours, jobs=args.jobs)
    print(render_calibration(results))
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    env = build_environment(seed=args.seed, resources=args.resources or None)
    env.warm_up(args.warmup_hours * 3600.0)
    print(f"Queue state after {args.warmup_hours:.1f} simulated hours:")
    for snap in env.bundle.query_all():
        c = snap.compute
        print(
            f"  {snap.name:>16}: util {c.utilization:.2f}, queue "
            f"{c.queue_length}, predicted wait {c.setup_time_estimate:.0f}s"
        )
    clusters = {n: env.bundle.cluster(n) for n in env.bundle.resources()}
    pm = PilotManager(env.sim, clusters)
    pilots = []
    for name in env.bundle.resources():
        pilots += pm.submit_pilots(
            ComputePilotDescription(
                resource=name, cores=args.cores, runtime_min=60
            )
        )
    env.sim.run(until=env.sim.now + 48 * 3600)
    print(f"\nMeasured wait for a {args.cores}-core probe pilot:")
    for p in pilots:
        wait = p.queue_wait
        shown = f"{wait:.0f}s" if wait is not None else "never started (48h)"
        print(f"  {p.resource:>16}: {shown}")
    return 0


def _build_supervision(args: argparse.Namespace):
    """SupervisionPolicy from --breaker/--watchdog-timeout/--deadline."""
    from .health import BreakerPolicy, SupervisionPolicy

    if not (args.breaker or args.watchdog_timeout or args.deadline):
        return None
    return SupervisionPolicy(
        breaker=BreakerPolicy() if args.breaker else None,
        watchdog_timeout_s=args.watchdog_timeout,
        deadline_s=args.deadline,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    telemetry_on = bool(
        args.telemetry or args.profile or args.trace_out
    )
    env = build_environment(
        seed=args.seed, supervision=_build_supervision(args),
        telemetry=telemetry_on,
    )
    tel = env.sim.telemetry
    profiler = tel.attach_profiler() if args.profile else None
    env.warm_up(args.warmup_hours * 3600.0)
    skeleton = SkeletonAPI(
        paper_skeleton(args.tasks, gaussian=args.gaussian), seed=args.seed
    )
    binding = Binding.LATE if args.binding == "late" else Binding.EARLY
    config = PlannerConfig(
        binding=binding,
        n_pilots=args.pilots,
        unit_scheduler="direct" if binding is Binding.EARLY else "backfill",
    )
    recovery = None
    if args.faults:
        try:
            plan = _load_fault_plan(args.faults, args.fault_seed)
        except (FaultPlanError, OSError) as exc:
            print(f"error: --faults {args.faults!r}: {exc}", file=sys.stderr)
            return 2
        injector = FaultInjector(
            env.sim,
            plan,
            pilot_manager=env.execution_manager.pilot_manager,
            network=env.network,
        )
        env.execution_manager.attach_faults(injector)
        if args.max_resubmit > 0:
            # chaos runs desynchronize their recovery backoffs; the
            # jitter comes from the kernel's seeded stream, so the
            # fault-log digest stays reproducible run to run.
            recovery = RecoveryPolicy(
                max_resubmissions=args.max_resubmit, jitter_frac=0.1
            )
    if telemetry_on:
        # Live progress on stderr, refreshed at each virtual-time sample.
        def _progress(hub, now):
            if not args.telemetry:
                return
            g = hub.metrics.snapshot()["gauges"]
            print(
                f"\r[t={now:>9.0f}s] units {g.get('units.done', 0)}/"
                f"{g.get('units.total', 0)} done, "
                f"pilots active {g.get('pilots.active', 0)}, "
                f"events {g.get('kernel.events-processed', 0)}",
                end="", file=sys.stderr, flush=True,
            )

        tel.start_sampler(env.sim, args.sample_interval, on_sample=_progress)
    report = env.execution_manager.execute(skeleton, config, recovery=recovery)
    if telemetry_on:
        tel.stop_sampler(env.sim)
        tel.close_open_spans()
        if args.telemetry:
            print(file=sys.stderr)  # terminate the progress line
    print(report.strategy.describe())
    print()
    print(report.summary())
    if args.attribution:
        att = report.attribution()
        print()
        print(att.summary())
        print(f"attribution digest: {att.digest()}")
        print("critical path:")
        for seg in att.critical_path:
            print(
                f"  {seg.t0:>10.1f} .. {seg.t1:>10.1f}  "
                f"{seg.duration:>8.1f}s  {seg.component:<4}  {seg.label}"
            )
    if report.fault_log is not None:
        print()
        print(report.fault_log.summary())
    if report.health_log is not None:
        print(report.health_log.summary())
        if report.deadline_expired:
            d = report.decomposition
            print(
                f"deadline expired: partial result "
                f"({d.units_done}/{report.n_tasks} tasks done, "
                f"{d.units_canceled} canceled)"
            )
    if args.timeline:
        from .core import render_report_timeline

        print()
        print(render_report_timeline(report))
    if args.telemetry:
        print()
        print(tel.metrics.render_table())
        print()
        print(tel.summary())
    if profiler is not None:
        print()
        print(profiler.report())
    if args.trace_out:
        from .telemetry import save_chrome_trace, save_otlp_trace

        if args.trace_format == "otlp":
            save_otlp_trace(tel, args.trace_out)
        else:
            save_chrome_trace(tel, args.trace_out)
        print(
            f"\n{args.trace_format} trace written to {args.trace_out} "
            f"(telemetry digest {tel.digest()[:12]})"
        )
    if args.save:
        from .core import save_session

        save_session(report, args.save)
        print(f"\nsession saved to {args.save}")
    return 0 if report.succeeded else 1


def _checked(kind, ok, rule: str):
    """An argparse ``type``: a ``kind`` value for which ``ok`` holds."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = kind.__name__  # "invalid int value: 'x'"
    return parse


_REPS = _checked(int, lambda v: v >= 1, ">= 1")
_JOBS = _checked(int, lambda v: v >= 0, ">= 0")
_HOURS = _checked(float, lambda v: v > 0, "> 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AIMES middleware reproduction — experiment driver",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (-v: INFO, -vv: DEBUG) on stderr",
    )
    parser.add_argument(
        "--log-file", default=None, metavar="FILE",
        help="also write a full DEBUG log to FILE",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table I strategy matrix")

    p = sub.add_parser("campaign", help="run the Table I experiment grid")
    p.add_argument("--experiments", type=int, nargs="+", default=[1, 2, 3, 4])
    p.add_argument("--sizes", type=int, nargs="*", default=None,
                   help="task counts (default: the paper's 8..2048)")
    p.add_argument("--reps", type=_REPS, default=4)
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument("-o", "--output", default=None,
                   help="save results to this JSON file")
    p.add_argument("-q", "--quiet", action="store_true")
    p.add_argument("-j", "--jobs", type=_JOBS, default=1,
                   help="worker processes for the repetition grid "
                        "(0 = one per usable CPU; default: 1, "
                        "in-process). Results are identical at every -j.")
    p.add_argument("--digests", action="store_true",
                   help="record a telemetry/fault/health digest per "
                        "repetition (used to cross-check serial vs "
                        "parallel execution)")
    p.add_argument("--ledger", default=None, metavar="FILE",
                   help="when the campaign ends, export the store's "
                        "campaign log to FILE as NDJSON (one record per "
                        "line: cells with coordinates, wall cost, "
                        "worker, digests, anomaly flags; attempts; "
                        "start/end); the lines `repro tail --json` "
                        "prints")
    p.add_argument("--store", default=None, metavar="FILE",
                   help="persist results into an indexed sqlite store "
                        "(WAL mode, one committed row per cell; "
                        "analyze/figures/report/tail/watch read it "
                        "directly and a live `repro tail FILE` never "
                        "sees a partial row)")
    p.add_argument("--resume", action="store_true",
                   help="continue a half-finished campaign from --store: "
                        "skip committed cells, reclaim stale leases, run "
                        "only the remainder. Refuses (exit 2) if the "
                        "store was written by a different campaign "
                        "config. The resumed store's fingerprint is "
                        "byte-identical to an uninterrupted run's.")
    p.add_argument("--retry-errors", action="store_true",
                   help="with --resume: re-attempt cells previously "
                        "quarantined as errors instead of skipping them")
    p.add_argument("--cell-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-time budget of each cell, from its own "
                        "dispatch, at every -j; a cell past it has its "
                        "worker killed and is retried, then quarantined "
                        "after --max-attempts. At -j 1 it runs cells in "
                        "one worker process, so a hung cell can be "
                        "killed (default: no timeout)")
    p.add_argument("--max-attempts", type=int, default=2,
                   help="losses of one cell (timeouts and crashes of "
                        "the worker holding it both count; no other "
                        "cell is charged) before it is quarantined as "
                        "a poison cell (default: %(default)s)")
    p.add_argument("--serve", default=None, metavar="[HOST]:PORT",
                   help="serve a live observability plane over HTTP "
                        "while the campaign runs: GET /metrics "
                        "(Prometheus text), /events (SSE ledger stream "
                        "with Last-Event-ID resume), /state.json "
                        "(snapshot). ':0' picks an ephemeral port; the "
                        "bound URL is printed on stderr. The endpoints "
                        "read the store; without --store the campaign "
                        "records into a temporary store file, deleted "
                        "on exit. Observation-only: results and digests "
                        "are unaffected.")

    p = sub.add_parser("figures", help="render figures from a saved campaign")
    p.add_argument("campaign",
                   help="campaign JSON from `repro campaign -o` or a "
                        "sqlite store from `repro campaign --store`")

    p = sub.add_parser(
        "analyze",
        help="regression sentinel: compare a campaign against a "
             "committed baseline and scan it for anomalies",
    )
    p.add_argument("campaign",
                   help="campaign JSON from `repro campaign -o` or a "
                        "sqlite store from `repro campaign --store`")
    p.add_argument("--baseline", default="benchmarks/BENCH_campaign.json",
                   help="bench JSON holding the committed fingerprint "
                        "(default: %(default)s)")
    p.add_argument("--baseline-key", default=BASELINE_KEY,
                   help="fingerprint key inside the baseline file "
                        "(default: %(default)s)")
    p.add_argument("--rel-tol", type=float, default=0.10,
                   help="relative drift tolerance (default: %(default)s)")
    p.add_argument("--update-baseline", action="store_true",
                   help="record the campaign as the new baseline "
                        "(merges into the bench file, other keys kept)")

    p = sub.add_parser(
        "report",
        help="write a self-contained HTML attribution report",
    )
    p.add_argument("campaign",
                   help="campaign JSON from `repro campaign -o` or a "
                        "sqlite store from `repro campaign --store`")
    p.add_argument("-o", "--output", default="report.html",
                   help="output HTML path (default: %(default)s)")
    p.add_argument("--baseline", default=None,
                   help="bench JSON to include a drift section against")
    p.add_argument("--baseline-key", default=BASELINE_KEY)

    p = sub.add_parser(
        "tail",
        help="progress view over the campaign log of a (possibly live) "
             "campaign store",
    )
    p.add_argument("store",
                   help="sqlite store from `repro campaign --store`")
    p.add_argument("--last", type=int, default=8,
                   help="show the last N cells (default: %(default)s)")
    p.add_argument("--json", action="store_true",
                   help="emit every ledger record as one JSON object "
                        "per line (machine-readable; --last is ignored)")

    p = sub.add_parser(
        "watch",
        help="live ANSI dashboard over a running (or finished) campaign",
    )
    p.add_argument("source", nargs="?", default=None, metavar="STORE",
                   help="sqlite store from `repro campaign --store`; "
                        "each poll folds the log rows written since the "
                        "last (safe on a live store: WAL multi-reader)")
    p.add_argument("--url", default=None, metavar="URL",
                   help="poll a live `repro campaign --serve` endpoint "
                        "instead of a file (its /state.json)")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                   help="poll cadence (default: %(default)s)")
    p.add_argument("--once", action="store_true",
                   help="render one frame and exit (no screen clearing)")
    p.add_argument("--no-color", action="store_true",
                   help="plain ASCII output (also implied when stdout "
                        "is not a tty)")

    p = sub.add_parser(
        "migrate",
        help="import a legacy campaign JSON artifact into an indexed "
             "sqlite store (idempotent: re-migrating replaces the same "
             "rows with the same content)",
    )
    p.add_argument("source", help="legacy campaign JSON artifact")
    p.add_argument("store", help="sqlite store to create or extend")

    p = sub.add_parser("ablation", help="run one ablation study")
    p.add_argument("study", choices=sorted(list(_ABLATIONS) + ["waits"]))
    p.add_argument("--reps", type=_REPS, default=4)
    p.add_argument("-j", "--jobs", type=_JOBS, default=1,
                   help="worker processes (0 = one per usable CPU)")

    p = sub.add_parser("calibrate", help="validate the substrate calibration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hours", type=_HOURS, default=24.0)
    p.add_argument("-j", "--jobs", type=_JOBS, default=1,
                   help="worker processes (0 = one per usable CPU)")

    p = sub.add_parser("probe", help="probe queue waits with pilot jobs")
    p.add_argument("--resources", nargs="*", default=None,
                   choices=sorted(PRESETS), help="default: all five")
    p.add_argument("--cores", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warmup-hours", type=float, default=6.0)

    p = sub.add_parser("run", help="execute one skeleton application")
    p.add_argument("--tasks", type=int, default=128,
                   choices=sorted(PAPER_TASK_COUNTS))
    p.add_argument("--binding", choices=("early", "late"), default="late")
    p.add_argument("--pilots", type=int, default=3)
    p.add_argument("--gaussian", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warmup-hours", type=float, default=4.0)
    p.add_argument("--timeline", action="store_true",
                   help="print an ASCII execution timeline (includes the "
                        "causal critical-path row)")
    p.add_argument("--attribution", action="store_true",
                   help="print the causal TTC attribution and the "
                        "critical-path listing")
    p.add_argument("--save", default=None,
                   help="save the execution session to this JSON file")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="inject faults: a FaultPlan JSON file or a preset "
                        f"name ({', '.join(PRESET_NAMES)})")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="override the fault plan's RNG seed")
    p.add_argument("--max-resubmit", type=int, default=2,
                   help="pilot resubmission budget under --faults "
                        "(0 disables recovery)")
    p.add_argument("--breaker", action="store_true",
                   help="enable per-resource circuit breakers (quarantine "
                        "resources that keep failing)")
    p.add_argument("--watchdog-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-unit progress deadline; hung units are "
                        "canceled and rescheduled")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="end-to-end TTC budget: re-plan around sick "
                        "resources, degrade to a partial result on expiry")
    p.add_argument("--telemetry", action="store_true",
                   help="enable the telemetry hub: live progress line, "
                        "metrics table, and span summary")
    p.add_argument("--profile", action="store_true",
                   help="profile the kernel: wall-clock attribution per "
                        "event type and per process")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write the telemetry trace to FILE "
                        "(implies telemetry collection)")
    p.add_argument("--trace-format", choices=("chrome", "otlp"),
                   default="chrome",
                   help="trace file format: Chrome trace-event JSON for "
                        "Perfetto (default) or OTLP-style JSON spans")
    p.add_argument("--sample-interval", type=float, default=600.0,
                   metavar="SECONDS",
                   help="virtual-time cadence of metric samples and the "
                        "progress line (default: 600)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(verbosity=args.verbose, log_file=args.log_file)
    handlers = {
        "table1": _cmd_table1,
        "campaign": _cmd_campaign,
        "figures": _cmd_figures,
        "analyze": _cmd_analyze,
        "report": _cmd_report,
        "tail": _cmd_tail,
        "watch": _cmd_watch,
        "migrate": _cmd_migrate,
        "ablation": _cmd_ablation,
        "calibrate": _cmd_calibrate,
        "probe": _cmd_probe,
        "run": _cmd_run,
    }
    try:
        return handlers[args.command](args)
    except (GridError, CampaignInterrupted) as exc:
        # a failed or interrupted ablation/calibration grid; `campaign`
        # handles its own interruption
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `repro tail ... | head`
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
