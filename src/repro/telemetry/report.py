"""Self-contained HTML reports for causal TTC attribution.

``repro report`` turns a campaign (or a single run) into one HTML file
a browser can open anywhere: inline CSS, inline SVG, zero scripts, zero
external references — the file is the artifact, suitable for CI upload
and side-by-side diffing.

The renderer is pure data-in/string-out: it takes a plain dict (the CLI
assembles it from campaign results, the attribution engine, the run
ledger, and the sentinel) and knows nothing about the rest of
:mod:`repro` — consistent with the telemetry package's zero-dependency
rule.

Expected ``data`` keys (all optional except ``title``)::

    title:        str
    subtitle:     str
    summary:      [(label, value), ...]               # headline table
    cells:        [{label, ttc, components: {comp: s}}, ...]
    critical_path:[{t0, t1, component, label}, ...]
    tw_by_resource: {resource: [seconds, ...]}
    anomalies:    [{cell, kind, detail}, ...]
    drift:        [{cell, metric, baseline, current, rel}, ...]
    store:        {path, runs, errors, cells, size_bytes}
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Sequence, Tuple

#: stable component order and print names (mirrors causality.COMPONENTS
#: without importing it — this module stays data-only).
_COMPONENTS: Tuple[str, ...] = ("tw", "tr", "tx", "ts", "trp", "idle")
_COMPONENT_NAMES = {
    "tw": "Tw (queue wait)", "tr": "Tr (bootstrap)", "tx": "Tx (execution)",
    "ts": "Ts (staging)", "trp": "Trp (overhead)", "idle": "idle",
}
_COMPONENT_COLORS = {
    "tw": "#d9822b", "tr": "#b58900", "tx": "#2aa198",
    "ts": "#6c71c4", "trp": "#859900", "idle": "#cccccc",
}

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
       max-width: 60em; color: #222; padding: 0 1em; }
h1 { font-size: 1.5em; border-bottom: 2px solid #2aa198; }
h2 { font-size: 1.15em; margin-top: 2em; }
table { border-collapse: collapse; margin: 0.75em 0; }
th, td { border: 1px solid #ddd; padding: 0.3em 0.7em; text-align: left; }
th { background: #f4f4f4; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.muted { color: #888; }
.bad { color: #c22; font-weight: 600; }
.legend span { display: inline-block; margin-right: 1.2em; }
.legend i { display: inline-block; width: 0.9em; height: 0.9em;
            margin-right: 0.35em; vertical-align: -0.1em; }
svg { display: block; margin: 0.5em 0; }
"""


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def _fmt_s(value: float) -> str:
    return f"{value:,.0f} s"


def _legend() -> str:
    spans = "".join(
        f'<span><i style="background:{_COMPONENT_COLORS[c]}"></i>'
        f"{_esc(_COMPONENT_NAMES[c])}</span>"
        for c in _COMPONENTS
    )
    return f'<p class="legend">{spans}</p>'


def _stacked_bars(cells: Sequence[Dict[str, Any]]) -> str:
    """One horizontal stacked bar per cell, shares of TTC."""
    if not cells:
        return ""
    width, bar_h, gap, label_w = 640, 22, 6, 150
    height = len(cells) * (bar_h + gap)
    parts: List[str] = [
        f'<svg width="{width + label_w + 60}" height="{height}" '
        f'role="img" aria-label="TTC attribution by cell">'
    ]
    for i, cell in enumerate(cells):
        y = i * (bar_h + gap)
        ttc = float(cell.get("ttc", 0.0)) or 1.0
        comps = cell.get("components", {})
        parts.append(
            f'<text x="0" y="{y + bar_h - 6}" font-size="12">'
            f"{_esc(cell.get('label', ''))}</text>"
        )
        x = float(label_w)
        for comp in _COMPONENTS:
            value = float(comps.get(comp, 0.0))
            if value <= 0:
                continue
            w = width * value / ttc
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{max(w, 0.5):.1f}" '
                f'height="{bar_h}" fill="{_COMPONENT_COLORS[comp]}">'
                f"<title>{_esc(_COMPONENT_NAMES[comp])}: "
                f"{value:,.0f}s ({value / ttc:.1%})</title></rect>"
            )
            x += w
        parts.append(
            f'<text x="{label_w + width + 6}" y="{y + bar_h - 6}" '
            f'font-size="12">{_fmt_s(ttc)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _histogram(values: Sequence[float]) -> str:
    """A small inline-SVG histogram (used per resource for Tw)."""
    width, height, bins = 320, 90, 12
    vals = [float(v) for v in values]
    if not vals:
        return '<span class="muted">no samples</span>'
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        hi = lo + 1.0
    counts = [0] * bins
    for v in vals:
        idx = min(bins - 1, int((v - lo) / (hi - lo) * bins))
        counts[idx] += 1
    peak = max(counts) or 1
    bar_w = width / bins
    parts = [
        f'<svg width="{width}" height="{height + 16}" role="img" '
        f'aria-label="queue-wait histogram">'
    ]
    for i, count in enumerate(counts):
        h = height * count / peak
        parts.append(
            f'<rect x="{i * bar_w + 1:.1f}" y="{height - h:.1f}" '
            f'width="{bar_w - 2:.1f}" height="{h:.1f}" fill="#d9822b">'
            f"<title>{count} pilot(s)</title></rect>"
        )
    parts.append(
        f'<text x="0" y="{height + 13}" font-size="11">{lo:,.0f}s</text>'
        f'<text x="{width}" y="{height + 13}" font-size="11" '
        f'text-anchor="end">{hi:,.0f}s</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _summary_table(rows: Sequence[Tuple[str, Any]]) -> str:
    body = "".join(
        f"<tr><th>{_esc(k)}</th><td>{_esc(v)}</td></tr>" for k, v in rows
    )
    return f"<table>{body}</table>"


def _critical_path_table(path: Sequence[Dict[str, Any]]) -> str:
    rows = []
    for seg in path:
        t0, t1 = float(seg["t0"]), float(seg["t1"])
        comp = str(seg.get("component", "?"))
        color = _COMPONENT_COLORS.get(comp, "#999")
        rows.append(
            "<tr>"
            f'<td class="num">{t0:,.1f}</td><td class="num">{t1:,.1f}</td>'
            f'<td class="num">{t1 - t0:,.1f}</td>'
            f'<td><i style="display:inline-block;width:0.8em;height:0.8em;'
            f'background:{color};margin-right:0.4em"></i>'
            f"{_esc(_COMPONENT_NAMES.get(comp, comp))}</td>"
            f"<td>{_esc(seg.get('label', ''))}</td></tr>"
        )
    return (
        "<table><tr><th>from (s)</th><th>to (s)</th><th>duration (s)</th>"
        "<th>component</th><th>activity</th></tr>"
        + "".join(rows) + "</table>"
    )


def _anomaly_table(anomalies: Sequence[Dict[str, Any]]) -> str:
    if not anomalies:
        return '<p class="muted">No anomalies flagged.</p>'
    rows = "".join(
        "<tr>"
        f"<td>{_esc(a.get('cell', ''))}</td>"
        f'<td class="bad">{_esc(a.get("kind", ""))}</td>'
        f"<td>{_esc(a.get('detail', ''))}</td></tr>"
        for a in anomalies
    )
    return (
        "<table><tr><th>cell</th><th>kind</th><th>detail</th></tr>"
        + rows + "</table>"
    )


def _store_table(store: Dict[str, Any]) -> str:
    """Provenance block for store-backed reports (indexed sqlite source)."""
    rows = [
        ("store file", store.get("path", "?")),
        ("runs", store.get("runs", 0)),
        ("errors", store.get("errors", 0)),
        ("cells", store.get("cells", 0)),
        ("size", f"{int(store.get('size_bytes', 0)):,} bytes"),
    ]
    body = "".join(
        f"<tr><th>{_esc(k)}</th><td>{_esc(v)}</td></tr>" for k, v in rows
    )
    return f"<table>{body}</table>"


def _drift_table(drift: Sequence[Dict[str, Any]]) -> str:
    if not drift:
        return '<p class="muted">No drift against the baseline.</p>'
    rows = "".join(
        "<tr>"
        f"<td>{_esc(d.get('cell', ''))}</td>"
        f'<td class="bad">{_esc(d.get("metric", ""))}</td>'
        f'<td class="num">{float(d.get("baseline", 0.0)):,.2f}</td>'
        f'<td class="num">{float(d.get("current", 0.0)):,.2f}</td>'
        f'<td class="num">{float(d.get("rel", 0.0)):+.1%}</td></tr>'
        for d in drift
    )
    return (
        "<table><tr><th>cell</th><th>metric</th><th>baseline</th>"
        "<th>current</th><th>change</th></tr>" + rows + "</table>"
    )


def render_html(data: Dict[str, Any]) -> str:
    """The whole report as one self-contained HTML document."""
    title = str(data.get("title", "Causal TTC attribution"))
    sections: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    if data.get("subtitle"):
        sections.append(f'<p class="muted">{_esc(data["subtitle"])}</p>')
    if data.get("summary"):
        sections.append("<h2>Summary</h2>")
        sections.append(_summary_table(data["summary"]))
    if data.get("cells"):
        sections.append("<h2>TTC attribution by cell</h2>")
        sections.append(_legend())
        sections.append(_stacked_bars(data["cells"]))
    if data.get("critical_path"):
        sections.append("<h2>Critical path</h2>")
        sections.append(
            '<p class="muted">The chain of activities whose completions '
            "gated the end of the run; segments tile the whole TTC."
            "</p>"
        )
        sections.append(_critical_path_table(data["critical_path"]))
    if data.get("tw_by_resource"):
        sections.append("<h2>Queue-wait distributions by resource</h2>")
        for resource in sorted(data["tw_by_resource"]):
            values = data["tw_by_resource"][resource]
            sections.append(
                f"<h3>{_esc(resource)} "
                f'<span class="muted">({len(values)} pilot(s))</span></h3>'
            )
            sections.append(_histogram(values))
    sections.append("<h2>Anomalies</h2>")
    sections.append(_anomaly_table(data.get("anomalies", ())))
    if data.get("store"):
        sections.append("<h2>Result store</h2>")
        sections.append(
            '<p class="muted">This report was generated from an indexed '
            "campaign store; per-cell queries were index-served rather "
            "than loaded from a whole-campaign artifact.</p>"
        )
        sections.append(_store_table(data["store"]))
    if "drift" in data:
        sections.append("<h2>Baseline comparison</h2>")
        sections.append(_drift_table(data["drift"]))
    sections.append("</body></html>")
    return "\n".join(sections)


def save_html(data: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_html(data))
