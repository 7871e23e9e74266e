"""The SQLite cold anchor tier and its wiring through RunJournal.

Unbounded ``ONCE``/``SINCE`` auxiliaries hold *anchor* tuples that
grow with the active domain, not the window — exactly the rows worth
spilling out of the hot checkpoint document.  These tests pin the
generational table format, its per-row checksums, the checkpoint ↔
cold-tier cross-verification, and when the journal spills (a durable
backend with ``sqlite3`` available).
"""

import json
import sqlite3

import pytest

from repro.core.monitor import Monitor
from repro.core.persist import cold_node_ids, recover, tiered_checkpoint
from repro.db import DatabaseSchema, Transaction
from repro.errors import RecoveryError, StoreCorruption
from repro.store import ColdAnchorStore, sqlite_available

ROWS = {
    "aux0": [[[1], [3, 5]], [[2], [7, 7]]],
    "aux1": [[[9], [1, 1]]],
}


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict({"p": ["a"], "q": ["a"]})


def unbounded_monitor(schema, **kwargs):
    """A monitor whose ONCE has no upper bound → cold-eligible aux."""
    monitor = Monitor(schema, **kwargs)
    monitor.add_constraint("ever", "q(x) -> ONCE p(x)")
    return monitor


def stream(length=10):
    items = []
    for i in range(length):
        rel = "p" if i % 3 else "q"
        items.append((i + 1, Transaction({rel: [(i % 4,)]})))
    return items


class TestColdAnchorStore:
    def test_sqlite_is_available_here(self):
        assert sqlite_available()

    def test_round_trip(self, tmp_path):
        with ColdAnchorStore(tmp_path / "cold.sqlite") as cold:
            meta = cold.write_generation(3, ROWS)
            assert meta["aux0"]["rows"] == 2
            assert cold.read_generation(3, expected=meta) == ROWS

    def test_zero_anchor_node_round_trips(self, tmp_path):
        with ColdAnchorStore(tmp_path / "cold.sqlite") as cold:
            meta = cold.write_generation(1, {"aux0": []})
            assert meta["aux0"]["rows"] == 0
            assert cold.read_generation(1, expected=meta) == {"aux0": []}

    def test_generation_overwrite_is_clean(self, tmp_path):
        # a crash before the checkpoint rename leaves a half generation
        # that the retry must fully replace
        with ColdAnchorStore(tmp_path / "cold.sqlite") as cold:
            cold.write_generation(2, ROWS)
            meta = cold.write_generation(2, {"aux0": ROWS["aux0"][:1]})
            rows = cold.read_generation(2, expected=meta)
            assert rows == {"aux0": ROWS["aux0"][:1]}

    def test_row_edit_is_detected(self, tmp_path):
        path = tmp_path / "cold.sqlite"
        with ColdAnchorStore(path) as cold:
            meta = cold.write_generation(1, ROWS)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE cold_rows SET payload = ? WHERE rowid = 1",
                (json.dumps([[99], [1, 1]]),),
            )
        conn.close()
        with ColdAnchorStore(path) as cold:
            with pytest.raises(StoreCorruption, match="checksum"):
                cold.read_generation(1, expected=meta)

    def test_dropped_row_is_detected(self, tmp_path):
        path = tmp_path / "cold.sqlite"
        with ColdAnchorStore(path) as cold:
            meta = cold.write_generation(1, ROWS)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("DELETE FROM cold_rows WHERE rowid = 1")
        conn.close()
        with ColdAnchorStore(path) as cold:
            with pytest.raises(StoreCorruption, match="digest"):
                cold.read_generation(1, expected=meta)

    def test_checkpoint_meta_mismatch_is_detected(self, tmp_path):
        # the tier is internally consistent but disagrees with the
        # checkpoint that references it (e.g. generations crossed)
        with ColdAnchorStore(tmp_path / "cold.sqlite") as cold:
            cold.write_generation(1, ROWS)
            forged = dict(cold.write_generation(2, ROWS))
            forged["aux0"] = {"rows": 99, "digest": "0" * 16}
            with pytest.raises(StoreCorruption, match="checkpoint"):
                cold.read_generation(2, expected=forged)

    def test_missing_generation_is_detected(self, tmp_path):
        with ColdAnchorStore(tmp_path / "cold.sqlite") as cold:
            meta = cold.write_generation(1, ROWS)
            with pytest.raises(StoreCorruption):
                cold.read_generation(7, expected=meta)

    def test_vacuum_respects_the_horizon(self, tmp_path):
        with ColdAnchorStore(tmp_path / "cold.sqlite") as cold:
            for gen in range(5):
                cold.write_generation(gen, ROWS)
            cold.vacuum(3)
            assert cold.generations() == [3, 4]

    def test_garbage_file_is_corruption_not_crash(self, tmp_path):
        path = tmp_path / "cold.sqlite"
        path.write_bytes(b"this is not a database" * 40)
        with pytest.raises(StoreCorruption, match="garbled|readable"):
            ColdAnchorStore(path)


class TestTieredCheckpoint:
    def test_unbounded_aux_is_cold_eligible(self, schema):
        monitor = unbounded_monitor(schema)
        for t, txn in stream(6):
            monitor.step(t, txn)
        assert cold_node_ids(monitor.checker) == ["aux0"]
        document, cold_rows = tiered_checkpoint(monitor.checker)
        assert set(cold_rows) == {"aux0"}
        [entry] = [
            e for e in document["aux"] if e.get("cold")
        ]
        assert "anchors" not in entry

    def test_bounded_aux_stays_hot(self, schema):
        monitor = Monitor(schema)
        monitor.add_constraint("w", "q(x) -> ONCE[0,3] p(x)")
        for t, txn in stream(6):
            monitor.step(t, txn)
        document, cold_rows = tiered_checkpoint(monitor.checker)
        assert cold_rows == {}
        assert not any(e.get("cold") for e in document["aux"])

    def test_spill_false_keeps_everything_hot(self, schema):
        monitor = unbounded_monitor(schema)
        for t, txn in stream(6):
            monitor.step(t, txn)
        document, cold_rows = tiered_checkpoint(
            monitor.checker, spill=False
        )
        assert cold_rows == {}


class TestJournalColdTier:
    def test_auto_spills_on_durable_backend(self, schema, tmp_path):
        monitor = unbounded_monitor(schema)
        journal = monitor.enable_journal(tmp_path / "j")
        assert journal.spills_cold
        for t, txn in stream(8):
            monitor.step(t, txn)
        monitor.journal.checkpoint(monitor.checker)
        monitor.journal.close()
        assert (tmp_path / "j" / "cold.sqlite").exists()

    def test_memory_backend_never_spills(self, schema, tmp_path):
        monitor = unbounded_monitor(schema)
        journal = monitor.enable_journal(tmp_path / "j", backend="memory")
        assert not journal.spills_cold

    def test_recover_merges_cold_rows(self, schema, tmp_path):
        full = stream(10)
        clean = unbounded_monitor(schema).run(full)

        monitor = unbounded_monitor(schema)
        monitor.enable_journal(tmp_path / "j", checkpoint_every=4)
        for t, txn in full[:7]:
            monitor.step(t, txn)
        monitor.journal.close()

        recovered, result = Monitor.recover(tmp_path / "j")
        continued = recovered.run(full[7:])
        recovered.journal.close()
        assert [v.time for v in continued.violations] == [
            v.time for v in clean.violations if v.time > 7
        ]

    def test_damaged_cold_tier_falls_back_a_generation(
        self, schema, tmp_path
    ):
        monitor = unbounded_monitor(schema)
        monitor.enable_journal(tmp_path / "j", checkpoint_every=3)
        for t, txn in stream(8):
            monitor.step(t, txn)
        monitor.journal.close()
        # corrupt a row of the *newest* generation only
        conn = sqlite3.connect(tmp_path / "j" / "cold.sqlite")
        newest = conn.execute(
            "SELECT MAX(gen) FROM cold_rows"
        ).fetchone()[0]
        with conn:
            conn.execute(
                "UPDATE cold_rows SET payload = '[[77], [1, 1]]' "
                "WHERE rowid IN (SELECT rowid FROM cold_rows "
                "WHERE gen = ? LIMIT 1)",
                (newest,),
            )
        conn.close()
        result = recover(tmp_path / "j")
        assert result.fallback
        # the previous generation plus the retained segments still
        # reach the last completed step
        assert result.checker.now == 8

    def test_cold_rows_missing_entirely_is_recovery_error(
        self, schema, tmp_path
    ):
        monitor = unbounded_monitor(schema)
        monitor.enable_journal(tmp_path / "j", checkpoint_every=100)
        for t, txn in stream(4):
            monitor.step(t, txn)
        monitor.journal.checkpoint(monitor.checker)
        monitor.journal.close()
        (tmp_path / "j" / "cold.sqlite").unlink()
        with pytest.raises(RecoveryError):
            recover(tmp_path / "j")
