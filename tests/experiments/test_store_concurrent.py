"""Concurrent access: one writer, live readers, crashing workers.

The store's concurrency contract (module docstring of
:mod:`repro.experiments.store`): exactly one writer — the campaign
runner's parent process — and any number of readers, each on its own
handle. WAL mode means a reader only ever sees committed whole rows:
``repro tail`` pointed at a live ``-j`` campaign can never observe a
torn or partial row, and a worker crash mid-campaign leaves no orphan
rows — whatever committed is complete, the in-flight cell simply is
not there yet.
"""

import json
import threading

import pytest

from repro.experiments import CampaignStore, run_campaign
from repro.experiments.campaign import CellError, RunResult

# reuse the module-level worker hooks the runner tests ship (workers
# import them by dotted path, so they must live at module scope).
from tests.experiments.test_runner import _FAKE_FIELDS

GRID_KW = dict(
    experiments=(1,), task_counts=(8, 16), reps=2, campaign_seed=0,
)

#: every field a stored run payload must carry — a reader that can
#: parse the payload and see all of these saw a whole row.
RUN_FIELDS = set(RunResult.__dataclass_fields__)


def _run(rep=0, **over):
    base = dict(
        exp_id=1, n_tasks=8, rep=rep, units_done=8, events=3,
        digest="", attribution=(), attribution_digest="", **_FAKE_FIELDS,
    )
    base.update(over)
    return RunResult(**base)


class TestWALSnapshotIsolation:
    """Deterministic isolation checks — no timing, no threads."""

    def test_reader_never_sees_an_open_transaction(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        with CampaignStore(path) as writer:
            writer.put_run(_run(rep=0))
            reader = CampaignStore(path, readonly=True)
            try:
                writer._conn.execute("BEGIN IMMEDIATE")
                writer.put_run(_run(rep=1))
                writer.put_run(_run(rep=2))
                # mid-transaction: the reader still sees exactly one
                # committed row, not a partial batch
                assert reader.run_count() == 1
                writer._conn.execute("COMMIT")
                assert reader.run_count() == 3
            finally:
                reader.close()

    def test_rollback_leaves_no_orphan_rows(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        with CampaignStore(path) as store:
            with pytest.raises(RuntimeError):
                with store.transaction():
                    store.put_run(_run(rep=0))
                    store.put_error(CellError(1, 8, 1, "half-written"))
                    raise RuntimeError("writer dies mid-batch")
            assert store.run_count() == 0
            assert store.error_count() == 0


class TestLiveCampaignReaders:
    def test_tail_reader_never_sees_torn_rows(self, tmp_path):
        """A reader polling its own handle during a live -j campaign.

        Every row it observes at any instant must parse as JSON and
        carry the complete RunResult field set — a torn write would
        fail one of those.
        """
        path = str(tmp_path / "c.sqlite")
        snapshots, torn = [], []
        stop = threading.Event()

        def tail():
            reader = CampaignStore(path, readonly=True)
            try:
                while not stop.is_set():
                    rows = reader._conn.execute(
                        "SELECT payload FROM runs"
                    ).fetchall()
                    for (payload,) in rows:
                        try:
                            raw = json.loads(payload)
                        except json.JSONDecodeError:
                            torn.append(payload)
                            continue
                        if set(raw) != RUN_FIELDS:
                            torn.append(payload)
                    snapshots.append(len(rows))
            finally:
                reader.close()

        with CampaignStore(path) as store:
            reader_thread = threading.Thread(target=tail)
            reader_thread.start()
            try:
                result = run_campaign(
                    jobs=2,
                    run_fn="tests.experiments.test_runner:_fake_run",
                    store=store,
                    **GRID_KW,
                )
            finally:
                stop.set()
                reader_thread.join(timeout=30)
            assert torn == []
            assert len(result.runs) == 4
            assert store.run_count() == 4
            # row counts only ever grow: committed snapshots, no tears
            assert snapshots == sorted(snapshots)

    def test_worker_crash_leaves_error_row_and_no_orphans(self, tmp_path):
        """os._exit in a worker: the cell becomes an error row, the
        surviving cells commit whole, and nothing half-written exists."""
        path = str(tmp_path / "c.sqlite")
        with CampaignStore(path) as store:
            result = run_campaign(
                jobs=2,
                run_fn="tests.experiments.test_runner:_crash_run",
                store=store,
                **GRID_KW,
            )
            assert store.run_count() == len(result.runs) == 3
            assert store.error_count() == 1
            (err,) = store.errors()
            assert (err.exp_id, err.n_tasks, err.rep) == (1, 16, 1)
            assert "crashed" in err.error
            # no runs row shadows the crashed repetition
            assert [r.rep for r in store.cell_runs(1, 16)] == [0]
            # and every committed payload is whole
            for run in store.load_campaign().runs:
                assert set(RunResult.__dataclass_fields__) == set(
                    run.__dataclass_fields__
                )

    def test_cell_exceptions_mirrored_to_store(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        with CampaignStore(path) as store:
            result = run_campaign(
                jobs=2,
                run_fn="tests.experiments.test_runner:_error_run",
                store=store,
                **GRID_KW,
            )
            assert store.run_count() == len(result.runs) == 2
            assert store.error_count() == len(result.errors) == 2
            assert {
                (e.exp_id, e.n_tasks, e.rep) for e in store.errors()
            } == {(1, 8, 1), (1, 16, 1)}
