"""The package runs without its optional dependencies.

networkx is only the ``dag`` extra: blocking it must leave campaign
cells and the CLI working, and fail only the DAG helpers, on use.
"""

import os
import subprocess
import sys
import textwrap

_BLOCK = "import sys; sys.modules['networkx'] = None\n"


def _run(code):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        [sys.executable, "-c", _BLOCK + textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_cell_runs_without_networkx():
    proc = _run("""
        from repro.experiments import TABLE1, run_single
        r = run_single(TABLE1[1], 8, rep=0, campaign_seed=2016)
        assert r.units_done == 8, r
        print("ok")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_cli_help_runs_without_networkx():
    proc = _run("""
        import runpy
        sys.argv = ["repro", "--help"]
        runpy.run_module("repro.cli", run_name="__main__")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


def test_dag_helpers_name_the_missing_dependency():
    proc = _run("""
        from repro.skeleton import SkeletonAPI, paper_skeleton
        from repro.skeleton.emitters import to_dag
        api = SkeletonAPI(paper_skeleton(8, gaussian=False), seed=1)
        try:
            to_dag(api.concrete)
        except ImportError as exc:
            print("ImportError", "networkx" in str(exc))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ImportError True"
