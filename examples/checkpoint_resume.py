"""Checkpoint and resume: monitoring survives restarts.

Because the incremental checker never stores the history, its whole
state fits in a small checkpoint: auxiliary relations + current
database + clock.  This example runs half a workload, saves it into a
store directory, builds a brand-new monitor from that directory, runs
the second half, and shows the verdicts are identical to an
uninterrupted run — while the directory stays a few kilobytes no
matter how long the run was.

The second act makes the restart *unplanned*: a journaled monitor is
killed mid-stream by the chaos harness, recovered from its journal
directory, and the spliced run is again bit-for-bit the uninterrupted
one — no step lost, none double-counted.

Run: python examples/checkpoint_resume.py
"""

import os
import tempfile

from repro import Monitor
from repro.workloads import library_workload

workload = library_workload(violation_rate=0.15)
stream = list(workload.stream(300, seed=21))
half = len(stream) // 2

# --- the uninterrupted run -------------------------------------------------
continuous = workload.monitor("incremental")
continuous_report = continuous.run(stream)

# --- the interrupted run ---------------------------------------------------
first_half = workload.monitor("incremental")
first_report = first_half.run(stream[:half])

checkpoint = os.path.join(tempfile.mkdtemp(), "saved")
first_half.save(checkpoint)
size = sum(entry.stat().st_size for entry in os.scandir(checkpoint))
print(f"checkpoint directory after {half} states: {size} bytes "
      f"({first_half.checker.aux_tuple_count()} aux tuples, "
      f"{first_half.checker.state.total_rows} current rows)")

resumed, _ = Monitor.recover(checkpoint, resume_journal=False)
print(f"resumed monitor: {resumed}")
second_report = resumed.run(stream[half:])

# --- equivalence -----------------------------------------------------------
split_violations = first_report.violations + second_report.violations
assert len(split_violations) == continuous_report.violation_count
for got, want in zip(split_violations, continuous_report.violations):
    assert got.constraint == want.constraint
    assert got.time == want.time
    assert got.witnesses == want.witnesses

print(f"\nverdicts identical: {continuous_report.violation_count} "
      f"violation(s) found by both the continuous and the resumed run")

# the checkpoint stays small because the encoding is bounded: compare
# with what a full-history checkpoint would have to carry
from repro import History  # noqa: E402

history = History.replay(workload.schema, stream[:half])
history_tuples = sum(snapshot.state.total_rows for snapshot in history)
carried = (
    first_half.checker.aux_tuple_count()
    + first_half.checker.state.total_rows
)
print(f"a full-history checkpoint would carry {history_tuples} tuples; "
      f"this one carries {carried}")

# --- crash and recover -----------------------------------------------------
# A planned save is easy; a journal makes the *unplanned* kill safe.
# `enable_journal` writes the same store directory as `save`, but
# checkpoints periodically and appends every applied step as a
# checksummed framed record to a segment WAL in between, so recovery =
# newest usable checkpoint + verified replay.
from repro.resilience import SimulatedCrash, run_until_crash  # noqa: E402
from repro.store import scrub_directory  # noqa: E402

journal_dir = os.path.join(tempfile.mkdtemp(), "journal")
doomed = workload.monitor("incremental")
doomed.enable_journal(journal_dir, checkpoint_every=40)

crash_at = 110  # the chaos harness kills the process mid-stream
partial = run_until_crash(doomed, stream, crash_at)
print(f"\nsimulated {SimulatedCrash.__name__} after "
      f"{len(partial)} of {len(stream)} states "
      f"({doomed.journal.checkpoints_written} checkpoint(s), "
      f"{doomed.journal.records_written} journal record(s) written)")

recovered, result = Monitor.recover(journal_dir)
print(f"recovered: checkpoint at t={result.checkpoint_time}, "
      f"replayed {result.journal_entries} journal record(s), "
      f"now at t={recovered.now}")
tail_report = recovered.run(stream[crash_at:])
recovered.journal.close()

spliced = list(partial.steps) + list(tail_report.steps)
assert spliced == list(continuous_report.steps)
print(f"crash-and-recover run identical to the uninterrupted one "
      f"({len(spliced)} step reports compared)")

# every durable record carries a blake2s checksum — a scrub proves the
# directory is intact after the crash-and-recover cycle
report = scrub_directory(journal_dir)
assert report.clean, report.findings
print(f"scrub: {report.files_checked} file(s), "
      f"{report.records_verified} record(s) verified, clean")
