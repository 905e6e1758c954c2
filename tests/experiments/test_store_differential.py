"""The differential harness: legacy JSON path vs store path, field for field.

The store is only allowed to exist because it is *provably* transparent:
the same seeded campaign, run through the legacy JSON pipeline and
through the sqlite repository, must produce field-for-field equal
``RunResult``s and byte-identical telemetry/attribution digests —
serial and ``-j`` parallel, after a store round-trip, and after a
legacy-artifact migration. This module is that proof, plus the
O(cell)-not-O(campaign) row-read accounting for single-cell fetches.
"""

import dataclasses
import json

import pytest

from repro.experiments import (
    CampaignStore,
    campaign_fingerprint,
    campaign_fingerprint_from_store,
    migrate_json,
    run_campaign,
)
from repro.experiments.campaign import RunResult
from repro.experiments.io import load_campaign, save_campaign

#: one small seeded grid shared by every differential check; digests on
#: so the telemetry/fault/health digest of every repetition is compared.
GRID = dict(
    experiments=(1, 3), task_counts=(8,), reps=2,
    campaign_seed=2016, collect_digests=True,
)


def canon(runs):
    """NaN-tolerant canonical rendering (NaN != NaN breaks plain ==)."""
    return json.dumps(
        [dataclasses.asdict(r) for r in runs], sort_keys=True, default=str
    )


@pytest.fixture(scope="module")
def legacy(tmp_path_factory):
    """The legacy path: run -> JSON file -> loaded back."""
    tmp = tmp_path_factory.mktemp("legacy")
    path = tmp / "campaign.json"
    result = run_campaign(**GRID)
    save_campaign(result, str(path))
    return load_campaign(str(path)), str(path)


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """The store path: run -> sqlite rows -> loaded back."""
    tmp = tmp_path_factory.mktemp("store")
    path = tmp / "campaign.sqlite"
    with CampaignStore(str(path)) as store:
        run_campaign(**GRID, store=store)
        return store.load_campaign(), str(path)


class TestSerialDifferential:
    def test_field_for_field_equal(self, legacy, stored):
        legacy_result, _ = legacy
        store_result, _ = stored
        assert len(store_result.runs) == len(legacy_result.runs) == 4
        assert canon(store_result.runs) == canon(legacy_result.runs)

    def test_digests_byte_identical(self, legacy, stored):
        legacy_result, _ = legacy
        store_result, _ = stored
        for a, b in zip(legacy_result.runs, store_result.runs):
            assert a.digest and a.digest == b.digest
            assert a.attribution_digest and (
                a.attribution_digest == b.attribution_digest
            )

    def test_meta_and_errors_equal(self, legacy, stored):
        legacy_result, _ = legacy
        store_result, _ = stored
        assert store_result.meta == legacy_result.meta
        assert store_result.errors == legacy_result.errors == []

    def test_fingerprints_identical_both_implementations(
        self, legacy, stored
    ):
        """In-memory fingerprint == streamed store fingerprint, bytewise."""
        legacy_result, _ = legacy
        _, store_path = stored
        fp_memory = campaign_fingerprint(legacy_result)
        with CampaignStore(store_path, readonly=True) as store:
            fp_store = campaign_fingerprint_from_store(store)
        assert fp_memory == fp_store
        assert fp_memory["digest"] == fp_store["digest"]


class TestParallelDifferential:
    def test_parallel_store_equals_serial_legacy(self, legacy, tmp_path):
        legacy_result, _ = legacy
        with CampaignStore(str(tmp_path / "par.sqlite")) as store:
            run_campaign(**GRID, jobs=2, store=store)
            par = store.load_campaign()
        assert canon(par.runs) == canon(legacy_result.runs)
        assert [r.attribution_digest for r in par.runs] == [
            r.attribution_digest for r in legacy_result.runs
        ]
        assert [r.digest for r in par.runs] == [
            r.digest for r in legacy_result.runs
        ]


class TestRoundTrips:
    def test_store_to_json_export_import(self, stored, tmp_path):
        """store -> JSON codec -> back: the codec loses nothing."""
        store_result, _ = stored
        path = tmp_path / "export.json"
        save_campaign(store_result, str(path))
        reimported = load_campaign(str(path))
        assert canon(reimported.runs) == canon(store_result.runs)
        assert reimported.meta == store_result.meta

    def test_legacy_artifact_migration(self, legacy, stored, tmp_path):
        """JSON artifact -> `migrate` -> store reads back identically."""
        legacy_result, json_path = legacy
        _, store_path = stored
        with migrate_json(json_path, str(tmp_path / "m.sqlite")) as migrated:
            result = migrated.load_campaign()
            fp = campaign_fingerprint_from_store(migrated)
        assert canon(result.runs) == canon(legacy_result.runs)
        assert fp == campaign_fingerprint(legacy_result)
        with CampaignStore(store_path, readonly=True) as store:
            assert fp == campaign_fingerprint_from_store(store)

    def test_store_reload_is_stable(self, stored):
        """Loading twice from the same store is deterministic."""
        _, store_path = stored
        with CampaignStore(store_path, readonly=True) as store:
            a = store.load_campaign()
            b = store.load_campaign()
        assert canon(a.runs) == canon(b.runs)


class TestSingleCellIsOCell:
    """Fetching one cell of a big campaign must not deserialize the rest."""

    REPS = 3

    @pytest.fixture(scope="class")
    def big_store(self, tmp_path_factory):
        # 1080 synthetic repetitions: 4 experiments x 90 sizes x 3 reps.
        # Fabricated rows (no simulation) keep this fast; the accounting
        # argument only needs row counts, not real physics.
        path = tmp_path_factory.mktemp("big") / "big.sqlite"
        fields = dict(
            resources=("r",), tw=1.0, tw_last=1.0, tx=2.0, ts=0.5,
            trp=0.25, pilot_waits=(1.0,), restarts=0, events=10,
            digest="", attribution=(), attribution_digest="",
        )
        with CampaignStore(str(path)) as store, store.transaction():
            for exp in (1, 2, 3, 4):
                for size in range(8, 98):
                    for rep in range(self.REPS):
                        store.put_run(RunResult(
                            exp_id=exp, n_tasks=size, rep=rep,
                            ttc=100.0 + size, units_done=size, **fields,
                        ))
        return str(path)

    def test_store_holds_over_1000_cells(self, big_store):
        with CampaignStore(big_store, readonly=True) as store:
            assert store.run_count() == 1080

    def test_cell_fetch_reads_reps_rows(self, big_store):
        with CampaignStore(big_store, readonly=True) as store:
            runs = store.cell_runs(2, 57)
            assert [(r.exp_id, r.n_tasks, r.rep) for r in runs] == [
                (2, 57, rep) for rep in range(self.REPS)
            ]
            assert store.rows_read == self.REPS

