"""Which layer owns each kernel callback, and the per-layer metrics.

The kernel profiler labels every dispatched callback with its qualname
and, for process resumptions, with the process name. The tables below
map both to the packages that own the code. A label or process no table
maps is an error, never a silent gap: a traced run that meets one fails.

Per-cell times come from the spans of :mod:`bench.trace`::

    cell wall = build + warm-up + skeleton + execute + attribution + glue
    build     = experiments.build_s (self) + cluster.prime_s
    warm-up + execute = des.kernel_self_s + sum of callback time per layer

so the mapped parts add up to the cell's wall exactly when every
callback second is attributed; :func:`cell_rows` checks that they cover
at least 95% of it.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import fmean
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from .trace import (
    ATTRIBUTION,
    BUILD,
    CELL,
    EXECUTE,
    PRIME,
    READ_BACK,
    SKELETON,
    WARMUP,
)

#: callback-label prefix -> layer.
LABEL_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("Timeout.", "des"),
    ("AllOf.", "des"),
    ("AnyOf.", "des"),
    ("Signal.", "des"),
    ("Cluster.", "cluster"),
    ("UnitManager.", "pilot"),
    ("PilotManager.", "pilot"),
    ("Agent.", "pilot"),
    ("Adaptor.", "pilot"),
    ("Link.", "net"),
    ("Network.", "net"),
)
#: process resumptions are labelled ``Process.*``; their time is split
#: by process name instead, from the profiler's per-process table.
PROCESS_LABEL = "Process."
PROCESS_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("workload/", "cluster"),
    ("drive/", "pilot"),
    ("execute/", "core"),
)
CALLBACK_LAYERS = ("des", "cluster", "pilot", "net", "core")

#: a cell's mapped parts must cover at least this share of its wall.
MIN_COVERAGE = 0.95
STAGES = (BUILD, WARMUP, SKELETON, EXECUTE, ATTRIBUTION)


class LayerError(ValueError):
    """An unmapped label, or a cell whose parts do not cover its wall."""


def layer_of(name: str, table: Iterable[Tuple[str, str]]) -> str:
    for prefix, layer in table:
        if name.startswith(prefix):
            return layer
    raise LayerError(f"no layer maps {name!r}; add it to bench/layers.py")


def callback_split(profile: Mapping[str, Any]) -> Dict[str, float]:
    """Profiler callback seconds per layer."""
    out = {layer: 0.0 for layer in CALLBACK_LAYERS}
    for label, (_, wall) in profile["labels"].items():
        if not label.startswith(PROCESS_LABEL):
            out[layer_of(label, LABEL_LAYERS)] += wall
    for name, (_, wall) in profile["processes"].items():
        out[layer_of(name, PROCESS_LAYERS)] += wall
    return out


def _count(profile: Mapping[str, Any], label: str) -> int:
    return int(profile["labels"].get(label, (0, 0.0))[0])


def _dur(span: Mapping[str, Any]) -> float:
    return span["end"] - span["start"]


def cell_rows(spans: List[Mapping[str, Any]]) -> List[Dict[str, float]]:
    """One row of per-layer numbers for each traced cell that completed."""
    children: Dict[Any, List[Mapping[str, Any]]] = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    rows = []
    for cell in spans:
        if cell["name"] != CELL or "profile" not in cell["attrs"]:
            continue
        stages = {s["name"]: s for s in children[cell["sid"]]}
        d = {name: _dur(stages[name]) for name in STAGES}
        prime = sum(
            _dur(s) for s in children[stages[BUILD]["sid"]]
            if s["name"] == PRIME
        )
        prof = cell["attrs"]["profile"]
        cb = callback_split(prof)
        wall = _dur(cell)
        row = {
            "des.kernel_self_s": d[WARMUP] + d[EXECUTE] - prof["total"],
            "des.events_warmup": stages[WARMUP]["attrs"]["events"],
            "des.events_execute": stages[EXECUTE]["attrs"]["events"],
            "des.rng_draws": cell["attrs"]["rng_draws"],
            "des.glue_s": cb["des"],
            "experiments.warmup_s": d[WARMUP],
            "experiments.build_s": d[BUILD] - prime,
            "cluster.prime_s": prime,
            "cluster.callback_s": cb["cluster"],
            "cluster.dispatches": _count(prof, "Cluster._dispatch"),
            "pilot.callback_s": cb["pilot"],
            "pilot.unit_passes": _count(prof, "UnitManager._run_pass"),
            "net.callback_s": cb["net"],
            "net.transfers": _count(prof, "Link._admit"),
            "core.execute_s": d[EXECUTE],
            "core.callback_s": cb["core"],
            "skeleton.build_s": d[SKELETON],
            "telemetry.attribution_s": d[ATTRIBUTION],
            "experiments.cell_glue_s": wall - sum(d.values()),
            "cell_wall_s": wall,
        }
        mapped = (
            row["experiments.build_s"] + prime + d[SKELETON] + d[ATTRIBUTION]
            + row["des.kernel_self_s"] + sum(cb.values())
            + row["experiments.cell_glue_s"]
        )
        row["coverage"] = mapped / wall
        if not MIN_COVERAGE <= row["coverage"] <= 2.0 - MIN_COVERAGE:
            raise LayerError(
                f"cell {cell['trace']}: mapped parts cover "
                f"{row['coverage']:.1%} of its wall"
            )
        rows.append(row)
    return rows


def _outermost(spans: List[Mapping[str, Any]], prefix: str) -> float:
    """Seconds in spans named ``prefix*`` not nested in another such span."""
    by_sid = {s["sid"]: s for s in spans}
    total = 0.0
    for s in spans:
        if not s["name"].startswith(prefix):
            continue
        parent = by_sid.get(s["parent"])
        while parent is not None and not parent["name"].startswith(prefix):
            parent = by_sid.get(parent["parent"])
        if parent is None:
            total += _dur(s)
    return total


#: per-cell means reported from :func:`cell_rows`.
CELL_METRICS = (
    "des.kernel_self_s", "des.events_warmup", "des.events_execute",
    "des.rng_draws", "des.glue_s", "experiments.warmup_s",
    "experiments.build_s", "cluster.prime_s", "cluster.callback_s",
    "cluster.dispatches", "pilot.callback_s", "pilot.unit_passes",
    "net.callback_s", "net.transfers", "core.execute_s", "core.callback_s",
    "skeleton.build_s", "telemetry.attribution_s",
    "experiments.cell_glue_s",
)


def layer_metrics(
    spans: List[Mapping[str, Any]], cells: int
) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition of ``cells`` cells.

    Cell-level numbers are means per traced cell; under a worker pool no
    cell is traced in this process and they read 0. Store and ledger
    times are per campaign cell, the read-back per campaign.
    """
    rows = cell_rows(spans)
    out = {
        name: fmean(r[name] for r in rows) if rows else 0.0
        for name in CELL_METRICS
    }
    per_cell = 1.0 / cells if cells else 0.0
    out["experiments.store_write_s"] = (
        _outermost(spans, "CampaignStore.") * per_cell
    )
    out["experiments.ledger_s"] = _outermost(spans, "RunLedger.") * per_cell
    reads = [_dur(s) for s in spans if s["name"] == READ_BACK]
    out["experiments.store_read_s"] = fmean(reads) if reads else 0.0
    out["bench.layer_coverage"] = (
        min(r["coverage"] for r in rows) if rows else 0.0
    )
    out["bench.kernel_self_share"] = (
        sum(r["des.kernel_self_s"] for r in rows)
        / sum(r["cell_wall_s"] for r in rows)
        if rows else 0.0
    )
    return out
