"""The package runs without its optional dependencies.

networkx is only the ``dag`` extra: blocking it must leave campaign
cells and the CLI working, and fail only the DAG helpers, on use.

A campaign cell needs none of the observatory's dependencies either:
the monitor's HTTP server, the watcher's URL client, the ``-j``
workers' process machinery, and (without a result store) ``sqlite3``.
Nor does ``repro run``: the CLI loads a command's modules when the
command runs.
"""

import os
import subprocess
import sys
import textwrap

#: what a serial campaign with a store and a ledger never imports.
_OBSERVATORY = ("http.server", "urllib.request", "multiprocessing")


def _run(code, block=("networkx",)):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    prelude = "import sys\n" + "".join(
        f"sys.modules[{name!r}] = None\n" for name in block
    )
    return subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
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


def test_cell_runs_without_the_observatory_or_sqlite():
    proc = _run("""
        from repro.experiments import TABLE1, run_single
        r = run_single(TABLE1[1], 8, rep=0, campaign_seed=2016)
        assert r.units_done == 8, r
        print("ok")
    """, block=(*_OBSERVATORY, "sqlite3"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_cell_imports_only_the_campaign_model():
    proc = _run("""
        from repro.experiments import TABLE1, run_single
        print(*sorted(m for m in sys.modules
                      if m.startswith("repro.experiments.")))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "repro.experiments.campaign", "repro.experiments.environment",
    ]


def test_serial_campaign_runs_without_the_observatory(tmp_path):
    proc = _run(f"""
        from repro.experiments import CampaignStore, RunLedger, run_campaign
        store = CampaignStore({str(tmp_path / "c.sqlite")!r})
        ledger = RunLedger(store=store)
        result = run_campaign(
            experiments=[1], task_counts=[8], reps=2, campaign_seed=2016,
            ledger=ledger, store=store,
        )
        ledger.close()
        assert len(result.runs) == 2 and not result.errors, result
        assert len(store.load_campaign().runs) == 2
        store.close()
        print("ok")
    """, block=_OBSERVATORY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_cli_run_loads_neither_the_observatory_nor_sqlite(tmp_path):
    proc = _run(f"""
        from repro.cli import main
        rc = main(["run", "--tasks", "8", "--pilots", "1", "--seed", "3",
                   "--warmup-hours", "1",
                   "--save", {str(tmp_path / "s.json")!r}])
        print("rc", rc)
    """, block=(*_OBSERVATORY, "sqlite3"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["rc", "0"]


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
