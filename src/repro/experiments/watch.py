"""`repro watch` and `repro tail`: terminal views of one campaign monitor.

Both views render a :class:`~repro.experiments.monitor.CampaignMonitor`
and share one header (phase, done/total, errors/retries/timeouts,
progress bar with ETA, the ``resumed:`` line). Their sources:

* ``repro watch --url http://host:port`` polls a live
  :class:`~repro.experiments.serve.MonitorServer`'s ``/state.json``;
* ``repro watch STORE`` and ``repro tail STORE`` open a monitor on the
  campaign store itself. ``watch`` keeps that one monitor across poll
  ticks, so each tick folds only the log rows written since the last;
  the WAL reader contract lets them observe a campaign they share
  nothing with but the filesystem;
* programmatic callers pass any :meth:`CampaignMonitor.state()
  <repro.experiments.monitor.CampaignMonitor.state>` dict straight to
  :func:`render_dashboard`, or a monitor to :func:`render_tail`.

The renderers are pure functions of the monitor (every frame is
testable without a terminal); the CLI loop just clears the screen and
reprints. Color degrades to plain ASCII with ``--no-color`` or when
stdout is not a tty; ``tail`` is always plain.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional
from urllib.request import urlopen

from .monitor import CampaignMonitor

__all__ = ["render_dashboard", "render_tail", "state_from_url"]

#: glyph + ANSI color per cell status (color key None = no color).
_STATUS_GLYPH = {
    "pending": (".", None),
    "running": ("r", "33"),   # yellow
    "ok": ("#", "32"),        # green
    "error": ("E", "31"),     # red
}


def state_from_url(url: str, timeout: float = 5.0) -> Dict[str, Any]:
    """Fetch ``/state.json`` from a :class:`MonitorServer`."""
    url = url.rstrip("/")
    if not url.endswith("/state.json"):
        url += "/state.json"
    with urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _paint(text: str, color: Optional[str], enabled: bool) -> str:
    if not enabled or color is None:
        return text
    return f"\x1b[{color}m{text}\x1b[0m"


def _bar(frac: float, width: int, fill: str = "#", empty: str = ".") -> str:
    filled = int(round(width * max(0.0, min(1.0, frac))))
    return fill * filled + empty * (width - filled)


def _fmt_eta(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def _header(state: Dict[str, Any], color: bool, width: int) -> List[str]:
    """The campaign header ``watch`` and ``tail`` share."""
    total, done = state.get("total", 0), state.get("done", 0)
    errors = state.get("errors", 0)
    frac = done / total if total else 0.0
    if state.get("finished") and state.get("interrupted"):
        phase = "interrupted (resumable)"
    elif state.get("finished"):
        phase = "finished"
    elif done or state.get("running"):
        phase = "running"
    else:
        phase = "waiting"
    head = f"campaign {phase}  {done}/{total} cells ({frac:6.1%})"
    if errors:
        head += "  " + _paint(f"{errors} errors", "31", color)
    if state.get("retries"):
        head += f"  {state['retries']} retries"
    if state.get("timeouts"):
        head += f"  {state['timeouts']} timeouts"
    lines = [head]

    bar_w = max(16, width - 24)
    eta = ""
    if not state.get("finished") and done:
        eta = f"  ETA {_fmt_eta(state.get('eta_s', 0.0))}"
        tput = state.get("throughput_cps", 0.0)
        if tput:
            eta += f"  {tput:.2f} cells/s"
    lines.append(f"[{_bar(frac, bar_w)}]{eta}")

    resumed = state.get("resumed")
    if resumed:
        lines.append(
            f"resumed: {resumed.get('committed', 0)} committed skipped, "
            f"{resumed.get('errors_retried', 0)} errors retried, "
            f"{resumed.get('reclaimed', 0)} stale leases reclaimed, "
            f"{resumed.get('remaining', 0)} cells to run"
        )
    return lines


def render_tail(monitor: CampaignMonitor, last: int = 8) -> str:
    """Header, the last ``last`` cell records, then other anomalous cells."""
    state = monitor.state()
    lines = _header(state, color=False, width=72)
    rows = {tuple(row["cell"]): row for row in state["grid"]}
    cells = [
        event for _id, event in monitor.events_after(0)
        if event.get("kind") == "cell"
    ]
    shown = set()
    for rec in cells[-last:]:
        cell = (rec["exp"], rec["n"], rec["rep"])
        shown.add(cell)
        mark = "ok " if rec.get("ok") else "ERR"
        extra = ""
        n_att = rows[cell].get("attempts", 0)
        if n_att > 1:
            extra += f"  att={n_att}"
        if rec.get("anomalies"):
            extra += "  !" + ",".join(rec["anomalies"])
        ttc = rec.get("ttc")
        ttc_s = f" TTC={ttc:.0f}s" if isinstance(ttc, (int, float)) else ""
        lines.append(
            f"  {mark} exp{cell[0]} n={cell[1]} rep={cell[2]}"
            f"{ttc_s} wall={rec.get('wall_s', 0.0):.2f}s"
            f" w{rec.get('worker', '-')}{extra}"
        )
    for cell, row in rows.items():
        if row.get("anomalies") and cell not in shown:
            lines.append(
                f"  !  exp{cell[0]} n={cell[1]} rep={cell[2]}: "
                + ",".join(row["anomalies"])
            )
    return "\n".join(lines)


def render_dashboard(
    state: Dict[str, Any], color: bool = True, width: int = 72
) -> str:
    """Render one dashboard frame from a monitor state snapshot."""
    lines = _header(state, color, width)

    # -- cell grid: one row per (exp, n) series, one glyph per rep ---------
    grid = state.get("grid") or []
    by_series: Dict[Any, List[Dict[str, Any]]] = {}
    for row in grid:
        exp, n, _rep = row["cell"]
        by_series.setdefault((exp, n), []).append(row)
    if by_series:
        lines.append("")
        lines.append("cells (rep →):")
        for (exp, n), rows in sorted(by_series.items()):
            glyphs = []
            for row in sorted(rows, key=lambda r: r["cell"][2]):
                glyph, col = _STATUS_GLYPH.get(row["status"], ("?", None))
                if row.get("attempts", 0) > 1 and row["status"] == "ok":
                    glyph = "+"  # committed only after retries
                glyphs.append(_paint(glyph, col, color))
            lines.append(f"  exp{exp} n={n:<5} {''.join(glyphs)}")
        lines.append(
            "  legend: . pending  r running  # ok  + ok-after-retry  E error"
        )

    # -- TTC component shares ----------------------------------------------
    components = state.get("components") or {}
    if components:
        lines.append("")
        lines.append("TTC component shares (completed cells):")
        name_w = max(len(name) for name in components)
        for name, comp in sorted(
            components.items(), key=lambda kv: -kv[1]["share"]
        ):
            share = comp["share"]
            lines.append(
                f"  {name:<{name_w}} [{_bar(share, 24, fill='=')}] {share:6.1%}"
            )

    # -- liveness -----------------------------------------------------------
    running = state.get("running") or []
    if running:
        lines.append("")
        shown = ", ".join(
            f"exp{c['cell'][0]} n={c['cell'][1]} rep={c['cell'][2]}"
            + (f" w{c['worker']}" if c.get("worker") else "")
            for c in running[:6]
        )
        more = f" (+{len(running) - 6} more)" if len(running) > 6 else ""
        lines.append(f"in flight: {shown}{more}")
    workers = state.get("workers") or []
    if workers and not state.get("finished"):
        stale = [w for w in workers if (w.get("age_s") or 0) > 10.0]
        note = f", {len(stale)} quiet >10s" if stale else ""
        lines.append(f"workers seen: {len(workers)}{note}")
    host = state.get("host") or {}
    if host:
        parts = []
        if "cpu_s" in host:
            parts.append(f"cpu {host['cpu_s']:.1f}s")
        if "rss_kb" in host:
            parts.append(f"rss {host['rss_kb'] / 1024:.0f}MB")
        if parts:
            lines.append("host: " + "  ".join(parts))
    return "\n".join(lines)
