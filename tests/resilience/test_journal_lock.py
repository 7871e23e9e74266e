"""Journal directory locking and the recovery edge cases.

The shard workers put the journal machinery under concurrent use for
the first time: one directory per shard, locks stolen from crashed
children, fsync'd records.  These tests pin the single-writer guard —
including the PID-reuse hazard: a lock file names ``(pid, process
start token)``, and a *recycled* pid (alive again, but a different
process) must be stolen, not refused — and the recover() edges the
sharded supervisor leans on.
"""

import json
import os

import pytest

from repro.core.persist import (
    CHECKPOINT_NAME,
    LOCK_NAME,
    JournalLock,
    RunJournal,
    checkpoint_dict,
    recover,
)
from repro.core.monitor import Monitor
from repro.db import DatabaseSchema, Transaction
from repro.errors import MonitorError, RecoveryError
from repro.store import list_segments, scrub_directory
from repro.store.lock import process_start_token


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict({"p": ["a"], "q": ["a"]})


def make_monitor(schema, **kwargs):
    monitor = Monitor(schema, **kwargs)
    monitor.add_constraint("window", "q(x) -> ONCE[0,3] p(x)")
    return monitor


def stream(length=10):
    items = []
    for i in range(length):
        rel = "p" if i % 3 else "q"
        items.append((i + 1, Transaction({rel: [(i % 4,)]})))
    return items


def dead_pid():
    """Spawn-and-wait a child so its pid is certainly dead."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return pid


class TestJournalLock:
    def test_acquire_stamps_pid_and_start_token(self, tmp_path):
        lock = JournalLock(tmp_path)
        lock.acquire()
        assert lock.held
        owner = json.loads((tmp_path / LOCK_NAME).read_text())
        assert owner["pid"] == os.getpid()
        assert owner["token"] == process_start_token(os.getpid())
        lock.release()
        assert not (tmp_path / LOCK_NAME).exists()

    def test_second_instance_in_process_refused(self, tmp_path):
        # a same-pid second writer interleaves frames just as badly as
        # a cross-process one: the registry must refuse it, and the
        # refusal must not touch the holder's lock file
        a = JournalLock(tmp_path)
        a.acquire()
        b = JournalLock(tmp_path)
        with pytest.raises(MonitorError, match="another store instance"):
            b.acquire()
        assert not b.held
        assert (tmp_path / LOCK_NAME).exists()
        a.release()
        b.acquire()  # free again once the holder releases
        assert b.held
        b.release()

    def test_abandon_simulates_owner_death(self, tmp_path):
        # abandon leaves the lock file behind (like a kill) but drops
        # the in-process claim, so a later acquire in this process
        # steals it the way a respawned process would
        a = JournalLock(tmp_path)
        a.acquire()
        a.abandon()
        assert not a.held
        assert (tmp_path / LOCK_NAME).exists()
        b = JournalLock(tmp_path)
        b.acquire()
        assert b.held
        b.release()

    def test_live_foreign_owner_refused(self, tmp_path):
        # pid 1 (init) is always alive and never us; stamp its real
        # start token so the owner is provably the same live process
        (tmp_path / LOCK_NAME).write_text(json.dumps(
            {"pid": 1, "token": process_start_token(1)}
        ))
        with pytest.raises(MonitorError, match="locked by live process 1"):
            JournalLock(tmp_path).acquire()

    def test_dead_owner_is_stolen(self, tmp_path):
        pid = dead_pid()
        (tmp_path / LOCK_NAME).write_text(json.dumps(
            {"pid": pid, "token": "12345"}
        ))
        lock = JournalLock(tmp_path)
        lock.acquire()
        assert lock.held
        owner = json.loads((tmp_path / LOCK_NAME).read_text())
        assert owner["pid"] == os.getpid()

    def test_recycled_pid_is_stolen(self, tmp_path):
        # THE pid-reuse regression: the lock names a pid that is alive
        # (pid 1) but a start token belonging to a different, long-dead
        # incarnation.  A bare-pid liveness probe would refuse forever;
        # the token mismatch proves the true owner is gone.
        real = process_start_token(1)
        assert real is not None, "test requires /proc"
        stale = "1" if real != "1" else "2"
        (tmp_path / LOCK_NAME).write_text(json.dumps(
            {"pid": 1, "token": stale}
        ))
        lock = JournalLock(tmp_path)
        lock.acquire()
        assert lock.held

    def test_legacy_bare_pid_lock_still_read(self, tmp_path):
        # locks written before the (pid, token) format: dead → stolen,
        # live → refused (the conservative rule they were written under)
        (tmp_path / LOCK_NAME).write_text(str(dead_pid()))
        lock = JournalLock(tmp_path)
        lock.acquire()
        lock.release()
        (tmp_path / LOCK_NAME).write_text("1")
        with pytest.raises(MonitorError, match="locked by live process"):
            JournalLock(tmp_path).acquire()

    def test_garbage_lock_file_is_stolen(self, tmp_path):
        (tmp_path / LOCK_NAME).write_text("not-a-pid")
        lock = JournalLock(tmp_path)
        lock.acquire()
        assert lock.held

    def test_release_is_idempotent(self, tmp_path):
        lock = JournalLock(tmp_path)
        lock.acquire()
        lock.release()
        lock.release()
        assert not lock.held

    def test_release_leaves_a_foreign_lock_alone(self, tmp_path):
        # if the file was stolen out from under us (or forged), our
        # release must not unlink the new owner's lock
        lock = JournalLock(tmp_path)
        lock.acquire()
        (tmp_path / LOCK_NAME).write_text(json.dumps(
            {"pid": 1, "token": process_start_token(1)}
        ))
        lock.release()
        assert (tmp_path / LOCK_NAME).exists()

    def test_concurrent_steal_has_a_single_winner(self, tmp_path):
        # THE double-steal race: several processes judge the same
        # stale owner at once.  Exactly one may acquire, and its fresh
        # lock must never be unlinked by a loser that judged the old
        # one — that would admit a second live writer.
        import time

        (tmp_path / LOCK_NAME).write_text(json.dumps(
            {"pid": dead_pid(), "token": "999"}
        ))
        barrier = tmp_path / "go"
        results = tmp_path / "results"
        results.mkdir()
        children = []
        contenders = 8
        for i in range(contenders):
            pid = os.fork()
            if pid == 0:  # child: contend for the stale lock
                status = 1
                try:
                    while not barrier.exists():
                        time.sleep(0.001)
                    lock = JournalLock(tmp_path)
                    try:
                        lock.acquire()
                        (results / f"won-{i}").write_text(str(os.getpid()))
                        # hold until every contender has decided, so no
                        # late loser sees *us* as a dead owner
                        deadline = time.monotonic() + 30
                        while (len(list(results.iterdir())) < contenders
                               and time.monotonic() < deadline):
                            time.sleep(0.002)
                    except MonitorError:
                        (results / f"lost-{i}").write_text("")
                    status = 0
                finally:
                    os._exit(status)
            children.append(pid)
        barrier.write_text("")
        for pid in children:
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
        winners = list(results.glob("won-*"))
        assert len(winners) == 1
        owner = json.loads((tmp_path / LOCK_NAME).read_text())
        assert owner["pid"] == int(winners[0].read_text())


class TestSingleWriter:
    def test_second_journal_in_live_process_conflicts(
        self, schema, tmp_path
    ):
        # same pid: the lock treats it as a re-acquire, so the guard
        # against true concurrent writers is exercised via a foreign
        # live pid on the lock file
        journal = RunJournal(tmp_path)
        journal.close()
        (tmp_path / LOCK_NAME).write_text("1")
        with pytest.raises(MonitorError, match="second writer"):
            RunJournal(tmp_path)

    def test_close_releases_the_lock(self, schema, tmp_path):
        journal = RunJournal(tmp_path)
        assert (tmp_path / LOCK_NAME).exists()
        journal.close()
        assert not (tmp_path / LOCK_NAME).exists()
        # a fresh writer can now attach
        RunJournal(tmp_path).close()

    def test_monitor_recover_steals_dead_owner_lock(
        self, schema, tmp_path
    ):
        monitor = make_monitor(schema, engine="incremental")
        monitor.enable_journal(tmp_path)
        for t, txn in stream(6):
            monitor.step(t, txn)
        # simulate a kill: forge a dead owner instead of releasing
        monitor.journal.store._fh.close()
        monitor.journal.store._fh = None
        monitor.journal.abandon()
        (tmp_path / LOCK_NAME).write_text(str(dead_pid()))
        recovered, result = Monitor.recover(tmp_path)
        assert recovered.now == 6
        owner = json.loads((tmp_path / LOCK_NAME).read_text())
        assert owner["pid"] == os.getpid()


class TestRecoveryEdges:
    def test_empty_directory_is_a_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError, match="checkpoint"):
            recover(tmp_path)

    def test_checkpoint_only_directory_recovers_cleanly(
        self, schema, tmp_path
    ):
        monitor = make_monitor(schema, engine="incremental")
        monitor.save(tmp_path)
        result = recover(tmp_path)
        assert result.journal_entries == 0
        assert result.torn_records == 0
        assert not result.fallback
        assert len(result.replayed.steps) == 0
        assert result.checker.steps_processed == 0

    def test_plain_json_layout_is_refused(self, schema, tmp_path):
        # the pre-store layout (plain-JSON checkpoint + JSONL journal,
        # no frames anywhere) is not read: recovery refuses it
        # explicitly and scrub reports it unrepairable
        monitor = make_monitor(schema, engine="incremental")
        (tmp_path / CHECKPOINT_NAME).write_text(
            json.dumps(checkpoint_dict(monitor.checker))
        )
        with open(tmp_path / "journal.jsonl", "w") as fh:
            for t, txn in stream(4):
                entry = {"t": t}
                entry.update(txn.to_dict())
                fh.write(json.dumps(entry) + "\n")
        with pytest.raises(RecoveryError, match="no usable checkpoint"):
            recover(tmp_path)
        report = scrub_directory(tmp_path)
        assert [f.kind for f in report.findings] == ["garbled"]
        assert not report.repairable

    def test_empty_journal_file_recovers_cleanly(self, schema, tmp_path):
        # a save commits a checkpoint and opens an empty segment
        monitor = make_monitor(schema, engine="incremental")
        monitor.save(tmp_path)
        [segment] = list_segments(tmp_path)
        assert segment.stat().st_size == 0
        result = recover(tmp_path)
        assert result.journal_entries == 0
        assert result.torn_records == 0

    def test_sync_mode_round_trips(self, schema, tmp_path):
        monitor = make_monitor(schema, engine="incremental")
        monitor.enable_journal(tmp_path, sync=True)
        reports = [monitor.step(t, txn) for t, txn in stream(8)]
        monitor.journal.close()
        recovered, result = Monitor.recover(tmp_path, sync=True)
        assert list(result.replayed.steps) == reports[
            len(reports) - result.journal_entries:
        ]
        assert recovered.journal.sync is True

    def test_checkpoint_error_names_the_directory(self, schema, tmp_path):
        monitor = make_monitor(schema, engine="incremental")
        with pytest.raises(MonitorError, match="enable_journal"):
            monitor.checkpoint()
        monitor.enable_journal(tmp_path / "j")
        monitor.step(1, Transaction({"p": [(0,)]}))
        # squat a directory on the checkpoint path so the atomic
        # replace fails with an OSError (chmod is no barrier to root)
        target = monitor.journal.checkpoint_path
        target.unlink()
        target.mkdir()
        with pytest.raises(
            MonitorError, match=f"cannot checkpoint.*{tmp_path / 'j'}"
        ):
            monitor.checkpoint()
        target.rmdir()

    def test_lock_file_does_not_confuse_recovery(self, schema, tmp_path):
        # a stale lock (dead owner) in the directory must not block
        # Monitor.recover — the shard respawn path hits this on every
        # crashed worker
        monitor = make_monitor(schema, engine="incremental")
        monitor.enable_journal(tmp_path)
        for t, txn in stream(5):
            monitor.step(t, txn)
        monitor.journal.close()
        (tmp_path / LOCK_NAME).write_text(str(dead_pid()))
        recovered, _ = Monitor.recover(tmp_path)
        assert recovered.now == 5
