"""Tests for campaign persistence and the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import CampaignStore, run_campaign
from repro.experiments.io import (
    campaign_from_dict,
    campaign_to_dict,
    load_campaign,
    save_campaign,
)


@pytest.fixture(scope="module")
def tiny_campaign():
    return run_campaign(
        experiments=(3,), task_counts=(8,), reps=2, campaign_seed=21
    )


class TestIO:
    def test_roundtrip_dict(self, tiny_campaign):
        rebuilt = campaign_from_dict(campaign_to_dict(tiny_campaign))
        assert len(rebuilt.runs) == len(tiny_campaign.runs)
        for a, b in zip(rebuilt.runs, tiny_campaign.runs):
            assert a == b

    def test_roundtrip_file(self, tiny_campaign, tmp_path):
        path = tmp_path / "campaign.json"
        save_campaign(tiny_campaign, str(path))
        rebuilt = load_campaign(str(path))

        def normalize(run):
            # NaN pilot waits (pilots canceled before activation) survive
            # the JSON roundtrip but NaN != NaN; compare via repr.
            import dataclasses

            d = dataclasses.asdict(run)
            d["pilot_waits"] = tuple(repr(w) for w in run.pilot_waits)
            return d

        assert [normalize(r) for r in rebuilt.runs] == [
            normalize(r) for r in tiny_campaign.runs
        ]
        # the file is real JSON
        data = json.loads(path.read_text())
        assert data["format"] == 1

    def test_version_check(self, tiny_campaign):
        data = campaign_to_dict(tiny_campaign)
        data["format"] = 99
        with pytest.raises(ValueError):
            campaign_from_dict(data)

    def test_errors_roundtrip(self, tiny_campaign):
        from repro.experiments.campaign import CellError

        tiny = campaign_from_dict(campaign_to_dict(tiny_campaign))
        tiny.errors.append(CellError(3, 8, 7, "worker process crashed"))
        rebuilt = campaign_from_dict(campaign_to_dict(tiny))
        assert rebuilt.errors == tiny.errors
        # campaigns without errors serialize without the key
        assert "errors" not in campaign_to_dict(tiny_campaign)

    def test_pre_runner_files_load(self, tiny_campaign):
        # Files written before the events/digest fields existed.
        data = campaign_to_dict(tiny_campaign)
        for raw in data["runs"]:
            raw.pop("events", None)
            raw.pop("digest", None)
        rebuilt = campaign_from_dict(data)
        assert all(r.events == 0 and r.digest == "" for r in rebuilt.runs)
        assert len(rebuilt.runs) == len(tiny_campaign.runs)


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "backfill" in out

    def test_campaign_to_file_and_figures(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        rc = main([
            "campaign", "--experiments", "3", "--sizes", "8",
            "--reps", "1", "--seed", "5", "-q", "-o", str(path),
        ])
        assert rc == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["figures", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out

    def test_campaign_inline_render(self, capsys):
        rc = main([
            "campaign", "--experiments", "3", "--sizes", "8",
            "--reps", "1", "--seed", "5", "-q",
        ])
        assert rc == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_campaign_jobs_flag_matches_serial(self, tmp_path):
        base = ["campaign", "--experiments", "3", "--sizes", "8",
                "--reps", "2", "--seed", "5", "-q", "--digests"]
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(base + ["-o", str(serial_path)]) == 0
        assert main(base + ["-j", "2", "-o", str(parallel_path)]) == 0
        serial = json.loads(serial_path.read_text())
        parallel = json.loads(parallel_path.read_text())
        assert serial["runs"] == parallel["runs"]
        assert all(r["digest"] for r in parallel["runs"])

    def test_run_command(self, capsys):
        rc = main([
            "run", "--tasks", "8", "--binding", "late", "--pilots", "2",
            "--seed", "3", "--warmup-hours", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ExecutionStrategy" in out
        assert "TTC" in out

    def test_run_rejects_non_paper_size(self):
        with pytest.raises(SystemExit):
            main(["run", "--tasks", "100"])

    def test_probe_command(self, capsys):
        rc = main([
            "probe", "--resources", "gordon-sim", "--cores", "64",
            "--warmup-hours", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gordon-sim" in out
        assert "Measured wait" in out

    def test_probe_bigger_than_the_resource_is_an_error(self, capsys):
        rc = main([
            "probe", "--resources", "gordon-sim", "--cores", "100000",
            "--warmup-hours", "0.1",
        ])
        assert rc == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "100000 cores" in err
        assert out == ""  # refused before the warm-up

    def test_ablation_command(self, capsys):
        rc = main(["ablation", "scheduler", "--reps", "1"])
        assert rc == 0
        assert "Ablation" in capsys.readouterr().out

    def test_calibrate_command(self, capsys):
        rc = main(["calibrate", "--hours", "2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "calibration" in out
        assert "stampede-sim" in out

    @pytest.mark.parametrize("argv, flag", [
        (["campaign", "--reps", "0"], "--reps"),
        (["ablation", "pilots", "--reps", "0"], "--reps"),
        (["campaign", "-j", "-1"], "-j/--jobs"),
        (["ablation", "pilots", "-j", "-1"], "-j/--jobs"),
        (["calibrate", "-j", "-1"], "-j/--jobs"),
        (["calibrate", "--hours", "0"], "--hours"),
        (["calibrate", "--hours", "-2"], "--hours"),
    ])
    def test_rejects_out_of_range_inputs(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro ")
        assert f"argument {flag}: must be " in err

    def test_calibrate_header_reports_simulated_hours(self, capsys):
        assert main(["calibrate", "--hours", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "Substrate calibration (1 simulated hour per resource):"
        )

    @staticmethod
    def _failing_sample(arms, cell):
        raise ValueError(f"boom at rep {cell[2]}")

    def test_ablation_failure_is_one_line_and_nonzero(
        self, capsys, monkeypatch
    ):
        from repro.experiments import ablation

        monkeypatch.setattr(ablation, "_sample", self._failing_sample)
        assert main(["ablation", "scheduler", "--reps", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 2 of 2 cell(s) failed: (0, 256, 0) ValueError: boom at "
            "rep 0; (1, 256, 0) ValueError: boom at rep 0\n"
        )

    def test_ablation_sigint_drains_and_exits_nonzero(
        self, capsys, monkeypatch
    ):
        """A first SIGINT lets the running sample finish, starts no
        other, and ends the study with one line on stderr."""
        import os
        import signal

        from repro.experiments import ablation

        def interrupted_sample(arms, cell):
            os.kill(os.getpid(), signal.SIGINT)
            return 1.0, 2.0

        monkeypatch.setattr(ablation, "_sample", interrupted_sample)
        assert main(["ablation", "scheduler", "--reps", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: interrupted after 1/4 cells\n"

    def test_run_with_timeline_and_save(self, tmp_path, capsys):
        path = tmp_path / "session.json"
        rc = main([
            "run", "--tasks", "8", "--pilots", "1", "--seed", "3",
            "--warmup-hours", "1", "--timeline", "--save", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pilot." in out  # timeline rows
        assert json.loads(path.read_text())["n_tasks"] == 8


class TestObservatoryCLI:
    """analyze / report / tail — the observability loop end to end."""

    @pytest.fixture(scope="class")
    def campaign_file(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("observatory")
        path = tmp / "campaign.json"
        store = tmp / "campaign.sqlite"
        rc = main([
            "campaign", "--experiments", "1", "3", "--sizes", "8",
            "--reps", "2", "--seed", "2016", "-q",
            "-o", str(path), "--store", str(store),
            "--ledger", str(tmp / "campaign.ndjson"),
        ])
        assert rc == 0
        return path, store

    def test_analyze_needs_a_baseline(self, campaign_file, tmp_path, capsys):
        path, _ = campaign_file
        baseline = tmp_path / "bench.json"
        rc = main(["analyze", str(path), "--baseline", str(baseline)])
        assert rc == 2
        assert "--update-baseline" in capsys.readouterr().err

    def test_analyze_update_then_clean_pass(
        self, campaign_file, tmp_path, capsys
    ):
        path, _ = campaign_file
        baseline = tmp_path / "bench.json"
        baseline.write_text(json.dumps({"other-bench": {"keep": 1}}))
        rc = main([
            "analyze", str(path), "--baseline", str(baseline),
            "--update-baseline",
        ])
        assert rc == 0
        merged = json.loads(baseline.read_text())
        assert merged["other-bench"] == {"keep": 1}  # merge, not clobber
        assert "campaign-attribution" in merged
        capsys.readouterr()
        rc = main(["analyze", str(path), "--baseline", str(baseline)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no drift" in out
        assert "dominant" in out

    def test_analyze_flags_injected_tw_regression(
        self, campaign_file, tmp_path, capsys
    ):
        path, _ = campaign_file
        baseline = tmp_path / "bench.json"
        assert main([
            "analyze", str(path), "--baseline", str(baseline),
            "--update-baseline",
        ]) == 0
        doc = json.loads(path.read_text())
        for run in doc["runs"]:  # inject a 25% queue-wait regression
            att = dict(run["attribution"])
            grown = att["tw"] * 1.25 + 100.0
            run["ttc"] += grown - att["tw"]
            att["tw"] = grown
            run["attribution"] = [[k, v] for k, v in att.items()]
            run["tw"] = grown
        bad = tmp_path / "regressed.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["analyze", str(bad), "--baseline", str(baseline)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "DRIFT" in err and "tw" in err

    def test_report_is_self_contained_html(
        self, campaign_file, tmp_path, capsys
    ):
        path, _ = campaign_file
        out_html = tmp_path / "report.html"
        rc = main(["report", str(path), "-o", str(out_html)])
        assert rc == 0
        html = out_html.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html.lower()
        assert "http://" not in html and "https://" not in html
        assert "Critical path" in html
        assert "Tw (queue wait)" in html

    def test_report_refuses_a_replay_that_is_not_the_stored_run(
        self, campaign_file, tmp_path, capsys, monkeypatch
    ):
        """The critical path comes from a replay of the slowest cell;
        when the replay's attribution digest is not the stored one, the
        page would draw another simulation's path next to the stored
        TTC, so ``report`` names the cell and both digests, exits 1 and
        writes no page."""
        from repro.experiments import campaign

        _, store = campaign_file
        real = campaign.run_cell_report

        def another_cell(spec, n_tasks, rep=0, **kw):
            return real(spec, n_tasks, 1 - rep, **kw)

        monkeypatch.setattr(campaign, "run_cell_report", another_cell)
        out_html = tmp_path / "report.html"
        capsys.readouterr()
        rc = main(["report", str(store), "-o", str(out_html)])
        err = capsys.readouterr().err
        assert rc == 1
        assert not out_html.exists()
        with CampaignStore(str(store), readonly=True) as opened:
            runs = opened.load_campaign().runs
        slowest = max(runs, key=lambda r: (r.ttc, r.exp_id, r.n_tasks, r.rep))
        assert (f"exp {slowest.exp_id} n={slowest.n_tasks} "
                f"rep={slowest.rep}") in err
        other, _, _ = real(
            campaign.TABLE1[slowest.exp_id], slowest.n_tasks,
            1 - slowest.rep, campaign_seed=2016,
        )
        assert slowest.attribution_digest in err
        assert other.attribution().digest() in err

    def test_report_anomaly_rows_come_from_the_record(
        self, campaign_file, tmp_path, capsys
    ):
        """Per-repetition flags and cell errors are read from the campaign
        record, so a JSON file and its store show the same rows."""
        path, _ = campaign_file
        doc = json.loads(path.read_text())
        for run in doc["runs"]:
            if (run["exp_id"], run["n_tasks"], run["rep"]) == (1, 8, 0):
                run["units_done"] = run["n_tasks"] - 1
        doc["runs"] = [
            r for r in doc["runs"]
            if (r["exp_id"], r["n_tasks"], r["rep"]) != (3, 8, 1)
        ]
        doc["errors"] = [
            {"exp_id": 3, "n_tasks": 8, "rep": 1, "error": "boom"}
        ]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        store = tmp_path / "edited.sqlite"
        assert main(["migrate", str(edited), str(store)]) == 0
        row = '<td>{}</td><td class="bad">{}</td><td>rep {}</td>'
        for source in (edited, store):
            out_html = tmp_path / f"{source.suffix[1:]}.html"
            assert main(["report", str(source), "-o", str(out_html)]) == 0
            html = out_html.read_text(encoding="utf-8")
            assert row.format("1:8", "incomplete", 0) in html
            assert row.format("3:8", "error", 1) in html
            assert html.count('<td class="bad">error</td>') == 1

    def test_tail_renders_the_ledger(self, campaign_file, capsys):
        _, ledger = campaign_file
        rc = main(["tail", str(ledger)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "finished" in out and "4/4" in out

    def test_tail_missing_ledger(self, tmp_path, capsys):
        rc = main(["tail", str(tmp_path / "nope.sqlite")])
        assert rc == 2
        assert "not a campaign store" in capsys.readouterr().err

    def test_tail_and_watch_refuse_an_ndjson_file(self, campaign_file,
                                                  capsys):
        """The NDJSON file is an export; the views read the store."""
        ndjson = str(campaign_file[1].with_suffix(".ndjson"))
        for argv in (["tail", ndjson], ["tail", ndjson, "--json"],
                     ["watch", ndjson, "--once"]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert f"{ndjson} is not a campaign store" in err, argv
            assert "--store" in err, argv

    def test_ledger_export_is_tail_json(self, campaign_file, capsys):
        _, store = campaign_file
        assert main(["tail", str(store), "--json"]) == 0
        assert capsys.readouterr().out == store.with_suffix(
            ".ndjson"
        ).read_text(encoding="utf-8")

    def test_tail_json_is_machine_readable(self, campaign_file, capsys):
        _, ledger = campaign_file
        rc = main(["tail", str(ledger), "--json"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines]  # every line parses
        assert records[0]["kind"] == "campaign-start"
        assert records[-1]["kind"] == "campaign-end"
        assert sum(1 for r in records if r["kind"] == "cell") == 4
        # stable key order per line (scripts can diff the stream)
        assert all(list(r) == sorted(r) for r in records)

    def test_watch_once_renders_dashboard(self, campaign_file, capsys):
        _, ledger = campaign_file
        rc = main(["watch", str(ledger), "--once", "--no-color"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign finished" in out
        assert "4/4 cells" in out
        assert "legend" in out

    def test_watch_follows_to_completion_then_exits(
        self, campaign_file, capsys
    ):
        _, ledger = campaign_file
        rc = main(["watch", str(ledger), "--interval", "0.01", "--no-color"])
        assert rc == 0  # finished source: one frame, clean exit
        assert "campaign finished" in capsys.readouterr().out

    def test_watch_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["watch"]) == 2
        assert main([
            "watch", str(tmp_path / "x.ndjson"), "--url", "http://x/",
        ]) == 2
        assert main(["watch", str(tmp_path / "nope.sqlite")]) == 2
