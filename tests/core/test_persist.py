"""Tests for checker checkpoint/restore through a store directory.

The central property: saving after k steps and restoring yields a
checker whose remaining run is indistinguishable from the original's —
same verdicts, same witnesses, same auxiliary sizes.  The one on-disk
format is the :mod:`repro.store` directory: ``Monitor.save`` writes a
checkpoint generation into it and ``Monitor.recover`` restores it.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checker import Constraint, IncrementalChecker
from repro.core.monitor import Monitor
from repro.core.persist import (
    CHECKPOINT_NAME,
    RunJournal,
    checkpoint_dict,
    cold_node_ids,
    restore_checker,
)
from repro.db import DatabaseSchema, Transaction
from repro.errors import MonitorError, RecoveryError
from repro.store import decode_record, encode_record
from repro.temporal import StreamGenerator

from tests.core.strategies import SCHEMA, constraints

LIB = DatabaseSchema.from_dict({"p": ["a"], "q": ["a"]})

CONSTRAINTS = [
    ("window", "p(x) -> ONCE[0,5] q(x)"),
    ("deadline", "p(x) -> q(x) SINCE[0,*] q(x)"),
    ("prev", "p(x) -> PREV (q(x) OR p(x))"),
]


def make_checker(**kwargs):
    return IncrementalChecker(
        LIB,
        [Constraint(name, text) for name, text in CONSTRAINTS],
        **kwargs,
    )


def make_monitor():
    monitor = Monitor(LIB)
    for name, text in CONSTRAINTS:
        monitor.add_constraint(name, text)
    return monitor


def restored(directory):
    """The checker ``Monitor.recover`` rebuilds from a saved directory."""
    monitor, _ = Monitor.recover(directory, resume_journal=False)
    return monitor.checker


def ins(rel, *rows):
    return Transaction({rel: list(rows)})


def rewrite_document(directory, edit):
    """Re-frame the saved checkpoint after ``edit(document)`` — a
    well-formed frame around a bad document."""
    path = directory / CHECKPOINT_NAME
    record = decode_record(path.read_bytes().strip())
    edit(record["document"])
    path.write_bytes(encode_record(record))


class TestRoundTrip:
    def test_fresh_checker(self, tmp_path):
        make_monitor().save(tmp_path / "ck")
        restored_checker = restored(tmp_path / "ck")
        assert restored_checker.now is None
        assert restored_checker.steps_processed == 0

    def test_mid_run_resume_matches_continuous_run(self, tmp_path):
        script = [
            (0, ins("q", (1,), (2,))),
            (2, ins("p", (1,))),
            (5, Transaction({}, {"q": [(1,)]})),
            (9, ins("p", (2,))),
            (12, Transaction.noop()),
            (20, ins("p", (3,))),
        ]
        continuous = make_monitor()
        resumed = make_monitor()
        for t, txn in script:
            expected = continuous.step(t, txn)
            got = resumed.step(t, txn)
            assert [v.witnesses for v in expected.violations] == [
                v.witnesses for v in got.violations
            ]
            # checkpoint/restore between every pair of steps, into the
            # same directory (each save commits a new generation)
            resumed.save(tmp_path / "ck")
            resumed, _ = Monitor.recover(tmp_path / "ck", resume_journal=False)
        assert resumed.now == continuous.now
        assert (
            resumed.checker.aux_tuple_count()
            == continuous.checker.aux_tuple_count()
        )
        assert resumed.checker.state == continuous.checker.state

    def test_collapse_flag_preserved(self, tmp_path):
        # the store write Monitor.save performs, for a bare checker
        # built with a flag Monitor does not expose
        journal = RunJournal(tmp_path / "ck")
        journal.attach(make_checker(collapse_unbounded=False))
        journal.close()
        assert restored(tmp_path / "ck").collapse_unbounded is False

    def test_checkpoint_is_small(self, tmp_path):
        checker = make_checker()
        for t in range(0, 40, 2):
            checker.step(t, ins("q", (t % 3,)))
        doc = checkpoint_dict(checker)
        # bounded encoding: the checkpoint carries aux + current state,
        # nowhere near 20 states worth of history
        assert len(json.dumps(doc)) < 4000

    @pytest.mark.parametrize("split", [1, 4, 9])
    def test_unbounded_since_round_trip_spills_cold(self, tmp_path, split):
        # SINCE[0,*] keeps one anchor per valuation, which the save
        # spills to the store's SQLite cold tier and recover merges back
        stream = list(
            StreamGenerator(LIB, universe=[0, 1, 2], max_gap=3, seed=split)
            .stream(12)
        )

        def monitor():
            m = Monitor(LIB)
            m.add_constraint("deadline", "p(x) -> q(x) SINCE[0,*] q(x)")
            return m

        continuous = monitor()
        expected = [continuous.step(t, txn) for t, txn in stream]
        first_half = monitor()
        for t, txn in stream[:split]:
            first_half.step(t, txn)
        assert cold_node_ids(first_half.checker)
        first_half.save(tmp_path / "ck")
        assert (tmp_path / "ck" / "cold.sqlite").exists()
        saved = decode_record(
            (tmp_path / "ck" / CHECKPOINT_NAME).read_bytes().strip()
        )
        assert saved["document"]["aux"][0] == {"type": "since", "cold": True}

        resumed, result = Monitor.recover(
            tmp_path / "ck", resume_journal=False
        )
        assert result.journal_entries == 0
        assert (
            resumed.checker.aux_tuple_count()
            == first_half.checker.aux_tuple_count()
        )
        got = [resumed.step(t, txn) for t, txn in stream[split:]]
        assert [[v.witnesses for v in r.violations] for r in got] == [
            [v.witnesses for v in r.violations] for r in expected[split:]
        ]
        assert resumed.checker.state == continuous.checker.state


class TestErrors:
    def test_version_check(self):
        with pytest.raises(MonitorError, match="version"):
            restore_checker({"version": 99})

    def test_aux_count_mismatch(self):
        checker = make_checker()
        doc = checkpoint_dict(checker)
        doc["aux"] = doc["aux"][:-1]
        with pytest.raises(MonitorError, match="auxiliary states"):
            restore_checker(doc)

    def test_kind_mismatch(self):
        checker = make_checker()
        doc = checkpoint_dict(checker)
        doc["aux"][0]["type"] = (
            "since" if doc["aux"][0]["type"] != "since" else "once"
        )
        with pytest.raises(MonitorError, match="kind mismatch"):
            restore_checker(doc)

    def test_malformed_file(self, tmp_path):
        # a bit flip inside the checkpoint frame fails its checksum;
        # with no earlier generation to fall back to, nothing restores
        make_monitor().save(tmp_path / "bad")
        path = tmp_path / "bad" / CHECKPOINT_NAME
        data = bytearray(path.read_bytes())
        data[-10] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError, match="no usable checkpoint") as excinfo:
            restored(tmp_path / "bad")
        assert str(tmp_path / "bad") in str(excinfo.value)

    def test_missing_file_names_path(self, tmp_path):
        # a missing directory is refused, not created
        with pytest.raises(RecoveryError, match="no such directory") as excinfo:
            restored(tmp_path / "nowhere")
        assert str(tmp_path / "nowhere") in str(excinfo.value)
        assert not (tmp_path / "nowhere").exists()
        (tmp_path / "empty").mkdir()
        with pytest.raises(RecoveryError, match="no usable checkpoint") as excinfo:
            restored(tmp_path / "empty")
        assert str(tmp_path / "empty") in str(excinfo.value)

    def test_non_object_document(self, tmp_path):
        (tmp_path / "list").mkdir()
        (tmp_path / "list" / CHECKPOINT_NAME).write_bytes(
            encode_record({"epoch": 0, "document": [1, 2, 3], "cold": {}})
        )
        with pytest.raises(RecoveryError, match="ill-typed") as excinfo:
            restored(tmp_path / "list")
        assert str(tmp_path / "list") in str(excinfo.value)

    def test_missing_field_wrapped(self, tmp_path):
        # structurally incomplete documents surface as RecoveryError
        # with the directory, never as a raw KeyError
        make_monitor().save(tmp_path / "partial")
        rewrite_document(tmp_path / "partial", lambda doc: doc.pop("state"))
        with pytest.raises(RecoveryError, match="missing or ill-typed") as excinfo:
            restored(tmp_path / "partial")
        assert str(tmp_path / "partial") in str(excinfo.value)

    def test_future_version_rejected_explicitly(self, tmp_path):
        make_monitor().save(tmp_path / "future")
        rewrite_document(
            tmp_path / "future",
            lambda doc: doc.update(version=doc["version"] + 1),
        )
        with pytest.raises(RecoveryError, match="newer than this build") as excinfo:
            restored(tmp_path / "future")
        assert str(tmp_path / "future") in str(excinfo.value)

    def test_save_is_atomic_no_temp_leftover(self, tmp_path):
        monitor = make_monitor()
        monitor.step(0, ins("q", (1,)))
        monitor.save(tmp_path / "ck")
        monitor.save(tmp_path / "ck")  # a second generation in place
        names = sorted(p.name for p in (tmp_path / "ck").iterdir())
        assert not [n for n in names if n.endswith(".tmp")]
        assert "journal.lock" not in names  # the writer lock is released
        assert {CHECKPOINT_NAME, "checkpoint.prev.json"} <= set(names)
        assert restored(tmp_path / "ck").now == 0

    def test_unwritable_save_names_the_directory(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(MonitorError, match="cannot save") as excinfo:
            make_monitor().save(tmp_path / "file" / "ck")
        assert str(tmp_path / "file" / "ck") in str(excinfo.value)

    def test_naive_engine_refuses_save(self, tmp_path):
        monitor = Monitor(LIB, engine="naive")
        with pytest.raises(MonitorError, match="incremental"):
            monitor.save(tmp_path / "ck")
        assert not (tmp_path / "ck").exists()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    constraint=constraints,
    seed=st.integers(0, 10**6),
    split=st.integers(1, 6),
)
def test_resume_property(constraint, seed, split):
    """save-at-k / resume equals the continuous run, on random inputs."""
    stream = list(
        StreamGenerator(SCHEMA, universe=[0, 1, 2], max_gap=3, seed=seed)
        .stream(8)
    )
    continuous = IncrementalChecker(SCHEMA, [constraint])
    first_half = IncrementalChecker(SCHEMA, [constraint])

    expected = [continuous.step(t, txn) for t, txn in stream]
    for t, txn in stream[:split]:
        first_half.step(t, txn)
    resumed = restore_checker(checkpoint_dict(first_half))
    got = [resumed.step(t, txn) for t, txn in stream[split:]]

    for want, have in zip(expected[split:], got):
        assert want.ok == have.ok, str(constraint.formula)
        assert [v.witnesses for v in want.violations] == [
            v.witnesses for v in have.violations
        ], str(constraint.formula)
