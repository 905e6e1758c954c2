"""End-to-end migration: legacy JSON artifact -> `repro migrate` -> store.

The committed baseline ``benchmarks/BENCH_campaign.json`` pins the
fingerprint of the seeded grid ``--experiments 1 3 --sizes 8 16
--reps 2 --seed 2016`` (the CI analyze-smoke grid). A legacy artifact
of that campaign, migrated into a store, must ``repro analyze`` clean
against that baseline — byte-for-byte fingerprint equality, exit 0 —
and migrating twice must be a no-op.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.experiments import (
    CampaignStore,
    campaign_fingerprint,
    campaign_fingerprint_from_store,
)
from repro.experiments.io import load_campaign

REPO = pathlib.Path(__file__).resolve().parents[2]
BASELINE = REPO / "benchmarks" / "BENCH_campaign.json"

#: the exact grid the committed baseline fingerprints.
BASELINE_GRID = [
    "--experiments", "1", "3", "--sizes", "8", "16",
    "--reps", "2", "--seed", "2016", "-q",
]


@pytest.fixture(scope="module")
def legacy_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("legacy") / "campaign_2016.json"
    assert main(["campaign", *BASELINE_GRID, "-o", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def migrated(legacy_json, tmp_path_factory):
    path = tmp_path_factory.mktemp("migrated") / "campaign.sqlite"
    assert main(["migrate", legacy_json, str(path)]) == 0
    return str(path)


class TestMigrateMatchesCommittedBaseline:
    def test_baseline_grid_is_what_we_think(self):
        baseline = json.loads(BASELINE.read_text())
        meta = baseline["campaign-attribution"]["meta"]
        assert meta["campaign_seed"] == 2016
        assert meta["experiments"] == [1, 3]
        assert meta["task_counts"] == [8, 16]
        assert meta["reps"] == 2

    def test_analyze_store_against_committed_baseline(self, migrated):
        assert (
            main(["analyze", migrated, "--baseline", str(BASELINE)]) == 0
        )

    def test_analyze_source_json_agrees(self, legacy_json):
        # sanity: the source artifact itself also matches the baseline,
        # so the store passing is not vacuous
        assert (
            main(["analyze", legacy_json, "--baseline", str(BASELINE)]) == 0
        )

    def test_fingerprint_digest_matches_baseline_exactly(self, migrated):
        baseline = json.loads(BASELINE.read_text())
        committed = baseline["campaign-attribution"]["digest"]
        with CampaignStore(migrated, readonly=True) as store:
            streamed = campaign_fingerprint_from_store(store)
        assert streamed["digest"] == committed


class TestMigrateIdempotent:
    def test_migrating_twice_changes_nothing(self, legacy_json, migrated):
        with CampaignStore(migrated, readonly=True) as store:
            before = campaign_fingerprint_from_store(store)
            runs_before = store.run_count()
        assert main(["migrate", legacy_json, migrated]) == 0
        with CampaignStore(migrated, readonly=True) as store:
            after = campaign_fingerprint_from_store(store)
            assert store.run_count() == runs_before
        assert after == before

    def test_store_and_json_fingerprints_identical(
        self, legacy_json, migrated
    ):
        fp_json = campaign_fingerprint(load_campaign(legacy_json))
        with CampaignStore(migrated, readonly=True) as store:
            fp_store = campaign_fingerprint_from_store(store)
        assert fp_json == fp_store


class TestOneReadPath:
    """A JSON artifact is read through an in-memory store, so it prints
    exactly what its migrated store file prints."""

    @pytest.mark.parametrize("command", [
        ["figures"], ["analyze", "--baseline", str(BASELINE)],
    ])
    def test_json_and_migrated_store_print_the_same(
        self, command, legacy_json, migrated, capsys
    ):
        outputs = []
        for path in (legacy_json, migrated):
            capsys.readouterr()
            assert main([command[0], path, *command[1:]]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0]


class TestMigrateRejectsBadInput:
    def test_store_source_rejected(self, migrated, tmp_path):
        rc = main(["migrate", migrated, str(tmp_path / "out.sqlite")])
        assert rc == 2

    def test_missing_source_rejected(self, tmp_path):
        rc = main(
            ["migrate", str(tmp_path / "nope.json"),
             str(tmp_path / "out.sqlite")]
        )
        assert rc == 2

    def test_garbage_source_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["migrate", str(bad), str(tmp_path / "out.sqlite")])
        assert rc == 2


class TestCampaignStoreCli:
    def test_campaign_writes_both_artifacts(self, tmp_path):
        json_path = tmp_path / "c.json"
        store_path = tmp_path / "c.sqlite"
        grid = [
            "--experiments", "1", "--sizes", "8", "--reps", "1",
            "--seed", "3", "-q",
        ]
        assert main(
            ["campaign", *grid, "-o", str(json_path),
             "--store", str(store_path)]
        ) == 0
        result = load_campaign(str(json_path))
        with CampaignStore(str(store_path), readonly=True) as store:
            assert store.load_campaign().runs == result.runs
            fp = campaign_fingerprint_from_store(store)
        # the -o export and the store describe one campaign
        assert fp == campaign_fingerprint(result)

    def test_tail_reads_store_ledger(self, tmp_path, capsys):
        store_path = tmp_path / "c.sqlite"
        grid = [
            "--experiments", "1", "--sizes", "8", "--reps", "1",
            "--seed", "3", "-q",
        ]
        assert main(
            ["campaign", *grid, "--store", str(store_path)]
        ) == 0
        assert main(["tail", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out
