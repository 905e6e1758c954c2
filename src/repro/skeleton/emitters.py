"""Output backends for materialized skeleton applications.

The Application Skeleton tool emits a skeleton in several forms: shell
commands for sequential local execution, a DAG for workflow systems, a
JSON structure for middleware that consumes it directly, and preparation
scripts that create the input files. We reproduce all four:

* :func:`to_shell` — a POSIX shell script that runs the tasks in
  dependency order (one stage after another);
* :func:`to_preparation_script` — creates the external input files;
* :func:`to_json` — the JSON structure the AIMES execution manager reads;
* :func:`to_dag` — a :class:`networkx.DiGraph` of task dependencies;
* :func:`to_dax` — a Pegasus-DAX-flavoured XML document.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict

from .model import ConcreteApplication

if TYPE_CHECKING:  # networkx is optional: the ``dag`` extra
    import networkx as nx


def to_preparation_script(app: ConcreteApplication) -> str:
    """Shell script that creates the application's external input files."""
    lines = [
        "#!/bin/sh",
        f"# preparation script for skeleton application {app.name!r}",
        "set -e",
        "mkdir -p input output",
    ]
    for f in app.preparation_files:
        size = int(round(f.size_bytes))
        lines.append(
            f"dd if=/dev/zero of='input/{f.name}' bs=1 count={size} 2>/dev/null"
        )
    lines.append(f"echo 'prepared {len(app.preparation_files)} input files'")
    return "\n".join(lines) + "\n"


def to_shell(app: ConcreteApplication) -> str:
    """Shell script running every task sequentially, in stage order.

    Each task command mimics the skeleton executable's behaviour: read the
    inputs, sleep for the task duration, write the outputs.
    """
    lines = [
        "#!/bin/sh",
        f"# skeleton application {app.name!r}: {app.n_tasks} tasks,",
        f"# {len(app.stages)} stage(s)",
        "set -e",
    ]
    for stage in app.stages:
        lines.append(f"# --- stage {stage.name} ({len(stage.tasks)} tasks) ---")
        for t in stage.tasks:
            ins = " ".join(f"'input/{f.name}'" for f in t.inputs) or "/dev/null"
            lines.append(f"cat {ins} > /dev/null")
            lines.append(f"sleep {t.duration:.0f}")
            for f in t.outputs:
                size = int(round(f.size_bytes))
                lines.append(
                    f"dd if=/dev/zero of='output/{f.name}' bs=1 "
                    f"count={size} 2>/dev/null"
                )
    return "\n".join(lines) + "\n"


def to_json(app: ConcreteApplication) -> str:
    """The JSON structure consumed by the AIMES execution manager."""
    doc: Dict[str, Any] = {
        "skeleton": {
            "name": app.name,
            "n_tasks": app.n_tasks,
            "preparation_files": [
                {"name": f.name, "size_bytes": f.size_bytes}
                for f in app.preparation_files
            ],
            "stages": [
                {
                    "name": s.name,
                    "index": s.index,
                    "tasks": [
                        {
                            "uid": t.uid,
                            "duration": t.duration,
                            "cores": t.cores,
                            "inputs": [
                                {"name": f.name, "size_bytes": f.size_bytes}
                                for f in t.inputs
                            ],
                            "outputs": [
                                {"name": f.name, "size_bytes": f.size_bytes}
                                for f in t.outputs
                            ],
                            "depends_on": list(t.depends_on),
                        }
                        for t in s.tasks
                    ],
                }
                for s in app.stages
            ],
        }
    }
    return json.dumps(doc, indent=2)


def to_dag(app: ConcreteApplication) -> "nx.DiGraph":
    """Task-dependency DAG; node attributes carry the task payload.

    Needs networkx (``pip install 'repro[dag]'``).
    """
    import networkx as nx

    g = nx.DiGraph(name=app.name)
    for t in app.all_tasks():
        g.add_node(
            t.uid,
            stage=t.stage,
            duration=t.duration,
            cores=t.cores,
            input_bytes=t.input_bytes,
            output_bytes=t.output_bytes,
        )
    for t in app.all_tasks():
        for dep in t.depends_on:
            g.add_edge(dep, t.uid)
    if not nx.is_directed_acyclic_graph(g):  # pragma: no cover - model invariant
        raise ValueError("skeleton produced a cyclic dependency graph")
    return g


def to_dax(app: ConcreteApplication) -> str:
    """A Pegasus-DAX-flavoured XML rendering of the application."""
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<adag name="{app.name}" jobCount="{app.n_tasks}">',
    ]
    for t in app.all_tasks():
        out.append(
            f'  <job id="{t.uid}" name="skeleton-task" '
            f'runtime="{t.duration:.1f}">'
        )
        for f in t.inputs:
            out.append(
                f'    <uses file="{f.name}" link="input" '
                f'size="{int(f.size_bytes)}"/>'
            )
        for f in t.outputs:
            out.append(
                f'    <uses file="{f.name}" link="output" '
                f'size="{int(f.size_bytes)}"/>'
            )
        out.append("  </job>")
    for t in app.all_tasks():
        if t.depends_on:
            out.append(f'  <child ref="{t.uid}">')
            for dep in t.depends_on:
                out.append(f'    <parent ref="{dep}"/>')
            out.append("  </child>")
    out.append("</adag>")
    return "\n".join(out) + "\n"
