"""Unified telemetry: spans, metrics, kernel profiling, and trace export.

The AIMES methodology makes *the execution process itself* measurable:
every middleware layer is instrumented, and analyses are derived from
traces rather than ad-hoc counters. This package is the single subsystem
those instruments report to:

* :mod:`~repro.telemetry.spans` — structured begin/end records carrying
  both virtual (DES) time and monotonic wall time, nestable via a
  context-manager API;
* :mod:`~repro.telemetry.metrics` — a registry of counters, gauges, and
  histograms, sampled on a configurable virtual-time cadence;
* :mod:`~repro.telemetry.profiler` — wall-clock attribution per kernel
  event type, so benchmark regressions become diagnosable;
* :mod:`~repro.telemetry.exporters` — Chrome trace-event JSON (loadable
  in Perfetto), OTLP-style JSON spans, and the legacy flat trace dump;
* :mod:`~repro.telemetry.digest` — the canonical-JSON/SHA-256 contract
  shared by the event logs and the telemetry hub, so every record
  stream is byte-reproducible under a fixed seed;
* :mod:`~repro.telemetry.eventlog` — the append-only event log that
  records injected faults and supervision decisions;
* :mod:`~repro.telemetry.causality` — the causal analysis layer:
  reconstructs an activity graph from recorded state histories, walks
  the critical path backward through each run's TTC, and attributes
  every virtual second to exactly one component (the partition sums to
  TTC by construction and digests byte-stably per seed);
* :mod:`~repro.telemetry.report` — self-contained HTML reports (inline
  CSS + SVG, no scripts, no external references) for the attribution
  breakdown, critical path, queue-wait distributions, and anomalies.

Every :class:`~repro.des.Simulation` owns a disabled-by-default
:class:`TelemetryHub` (``sim.telemetry``); enabling it turns the
instrumentation points across des, cluster, bundle, saga, pilot, core,
and health into live span/metric emitters.

This package imports nothing from the rest of :mod:`repro` but the
leaf module :mod:`repro.lifecycle` (the pilot and unit state tables,
standard library only), so every layer (including the DES kernel
itself) can depend on it.
"""

from .causality import (
    COMPONENTS,
    CausalGraph,
    PathSegment,
    TTCAttribution,
    attribute_report,
    build_graph,
    critical_path,
    sweep_attribution,
)
from .digest import canonical_json, sha256_digest
from .eventlog import EventLog
from .exporters import (
    chrome_trace,
    otlp_trace,
    save_chrome_trace,
    save_otlp_trace,
)
from .hub import TelemetryHub, TelemetrySummary
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from .profiler import KernelProfiler
from .report import render_html, save_html
from .spans import Span

__all__ = [
    "COMPONENTS",
    "CausalGraph",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "KernelProfiler",
    "MetricsRegistry",
    "PathSegment",
    "Span",
    "TTCAttribution",
    "TelemetryHub",
    "TelemetrySummary",
    "attribute_report",
    "build_graph",
    "canonical_json",
    "chrome_trace",
    "critical_path",
    "otlp_trace",
    "render_html",
    "render_prometheus",
    "save_chrome_trace",
    "save_html",
    "save_otlp_trace",
    "sha256_digest",
    "sweep_attribution",
]
