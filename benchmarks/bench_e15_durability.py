"""E15 (extension) — durability costs a constant, recovery stays flat.

Sweep the stream length over one seeded workload (one bounded and one
unbounded constraint, so both the hot checkpoint document and the cold
SQLite anchor tier are exercised) and measure the per-step price of
each journal configuration against the bare monitor: the in-memory
backend (framing + checksums, no I/O), the durable segment store
(flush-only), and the durable store under ``sync="force"`` (a real
``fsync(2)`` on every record, bypassing the ``REPRO_FSYNC`` hatch).

The two shapes that make a WAL usable in production:

* **constant overhead** — each configuration's per-step cost is flat
  in the stream length (the store appends; it never rescans);
* **bounded recovery** — crash recovery replays at most
  ``checkpoint_every`` records regardless of how long the run was, so
  recovery time is flat in the stream length too.

Verdict equality is asserted throughout: every journaled
configuration, and the recovered-and-continued run, must reproduce the
bare monitor's verdict table bit-for-bit.

Timings take the minimum over ``REPEATS`` runs per configuration, the
usual noise guard for ratio gates.
"""

import shutil
import tempfile
import time
from pathlib import Path

from repro.core.monitor import Monitor
from repro.db import DatabaseSchema, Transaction

SEED = 1515
REPEATS = 3
CHECKPOINT_EVERY = 25
CRASH_TAIL = 10  # steps replayed from the stream after recovery

PROFILES = {
    "short": [80, 160],
    "full": [80, 160, 320],
}

HEADERS = [
    "length",
    "plain us/step",
    "memory us/step",
    "wal us/step",
    "fsync us/step",
    "recover ms",
    "replayed records",
]

SCHEMA = DatabaseSchema.from_dict({"p": ["a"], "q": ["a"]})


def make_monitor(**kwargs):
    monitor = Monitor(SCHEMA, **kwargs)
    monitor.add_constraint("window", "q(x) -> ONCE[0,3] p(x)")
    monitor.add_constraint("ever", "q(x) -> ONCE p(x)")
    return monitor


def stream(length):
    items, t = [], 0
    for i in range(length):
        t += 1 + ((i + SEED) % 3 == 0)
        rel = "p" if i % 3 else "q"
        items.append((t, Transaction({rel: [((i * 7 + SEED) % 11,)]})))
    return items


def verdicts(report, after=0):
    return [
        (v.constraint, v.time, repr(v.witnesses))
        for v in report.violations
        if v.time > after
    ]


def _timed_run(items, journal=None, directory=None):
    """One monitored pass; returns (mean step seconds, verdict table)."""
    monitor = make_monitor()
    if journal is not None:
        monitor.enable_journal(
            directory, checkpoint_every=CHECKPOINT_EVERY, **journal
        )
    start = time.perf_counter()
    report = monitor.run(items)
    elapsed = time.perf_counter() - start
    if journal is not None:
        monitor.journal.close()
    return elapsed / len(items), verdicts(report)


def _best(items, journal=None, workdir=None):
    """Best-of-``REPEATS`` step time; table from the first pass."""
    best, table = None, None
    for attempt in range(REPEATS):
        directory = None
        if journal is not None:
            directory = Path(workdir) / f"run-{attempt}"
        mean, run_table = _timed_run(items, journal, directory)
        if table is None:
            table = run_table
        if best is None or mean < best:
            best = mean
        if directory is not None and directory.exists():
            shutil.rmtree(directory)  # the memory backend writes nothing
    return best, table


def _recovery_cost(items, workdir):
    """Journal the run, then time a cold recovery of the directory."""
    directory = Path(workdir) / "recover"
    monitor = make_monitor()
    monitor.enable_journal(
        directory, checkpoint_every=CHECKPOINT_EVERY, sync=False
    )
    monitor.run(items)
    monitor.journal.close()
    best, replayed = None, 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        # resume_journal=False: a plain read-side recovery, so the
        # directory (and the replay length) is identical every repeat
        _, result = Monitor.recover(directory, resume_journal=False)
        elapsed = time.perf_counter() - start
        replayed = result.journal_entries
        if best is None or elapsed < best:
            best = elapsed
    return best, replayed


def run(recorder, profile="full"):
    lengths = PROFILES[profile]
    for length in lengths:
        items = stream(length)
        with tempfile.TemporaryDirectory() as workdir:
            plain_s, plain = _best(items)
            memory_s, memory = _best(
                items, journal={"backend": "memory"}, workdir=workdir
            )
            wal_s, wal = _best(
                items, journal={"sync": False}, workdir=workdir
            )
            fsync_s, fsync = _best(
                items, journal={"sync": "force"}, workdir=workdir
            )
            recover_s, replayed = _recovery_cost(items, workdir)
        recorder.row(
            HEADERS,
            [
                length,
                round(plain_s * 1e6, 1),
                round(memory_s * 1e6, 1),
                round(wal_s * 1e6, 1),
                round(fsync_s * 1e6, 1),
                round(recover_s * 1e3, 2),
                replayed,
            ],
            title=f"journal backends vs bare monitor (checkpoint every "
                  f"{CHECKPOINT_EVERY}, seed {SEED})",
        )
        recorder.check(
            f"journaled verdicts identical at length {length}",
            plain == memory == wal == fsync,
            detail=f"{len(plain)} violation(s)",
        )

    # recovery equality: crash CRASH_TAIL steps before the end, then
    # recover and continue — the rebuilt run must match the clean one
    items = stream(lengths[-1])
    clean = make_monitor().run(items)
    with tempfile.TemporaryDirectory() as workdir:
        directory = Path(workdir) / "crash"
        crashed = make_monitor()
        crashed.enable_journal(
            directory, checkpoint_every=CHECKPOINT_EVERY, sync=False
        )
        crashed.run(items[:-CRASH_TAIL])
        crashed.journal.close()
        recovered, _ = Monitor.recover(directory)
        now = recovered.now if recovered.now is not None else 0
        continued = recovered.run([s for s in items if s[0] > now])
        recovered.journal.close()
    recorder.check(
        "recovered run continues bit-for-bit",
        verdicts(continued) == verdicts(clean, after=now),
        detail=f"resumed at t={now}, "
               f"{len(verdicts(clean, after=now))} violation(s) after",
    )

    # the store appends: no per-step cost may grow with the length
    recorder.expect_flat(
        "wal per-step cost is flat in stream length",
        "wal us/step", tolerance_ratio=3.0,
    )
    recorder.expect_flat(
        "fsync per-step cost is flat in stream length",
        "fsync us/step", tolerance_ratio=3.0,
    )
    # replay is bounded by the checkpoint interval, so recovery time
    # must not trend with how long the monitor had been running
    recorder.expect_max(
        "journal replay is bounded by the checkpoint interval",
        "replayed records", CHECKPOINT_EVERY,
    )
    recorder.expect_flat(
        "recovery time is flat in stream length",
        "recover ms", tolerance_ratio=4.0,
    )


def test_e15():
    from _experiments import run_for_pytest

    run_for_pytest("e15")
