"""Checkpoint / restore / crash recovery for the incremental checker.

A monitor that never stores the history is exactly the kind of process
one wants to stop and resume: the whole checkpoint is the (small)
auxiliary state plus the current database state.  This module
serialises an :class:`~repro.core.checker.IncrementalChecker` to a
versioned JSON document and restores it to a checker that continues
the run *exactly* where the original left off — the round-trip
property ``restore(checkpoint(checker)) ≡ checker`` is verified by
property tests.  The one on-disk format is a :mod:`repro.store`
directory: a planned save (:meth:`Monitor.save
<repro.core.monitor.Monitor.save>`) writes one checkpoint generation
into it, a journaled run keeps writing generations and journal
segments, and :func:`recover` restores either.

Constraints are stored as their concrete syntax (``str(formula)``),
which the parser round-trips; auxiliary relations are stored in the
checker's bottom-up registration order, which reconstruction
reproduces deterministically from the constraints.

Durability is delegated to the :mod:`repro.store` seam:

* every durable record — checkpoint and journal step alike — is a
  framed line carrying a format version, length prefix, and blake2s
  checksum, so torn writes and bit flips are *detected* instead of
  silently corrupting recovery;
* :class:`RunJournal` appends each applied ``(timestamp,
  transaction)`` pair through a :class:`~repro.store.StateStore`
  backend (checksummed segment WAL by default, in-memory for
  ephemeral runs) with periodic atomic checkpoints;
* :func:`recover` restores the newest usable checkpoint — falling
  back to the retained previous generation when the current one is
  damaged — and replays the journal, **leniently**: a damaged record
  truncates the replay at the last valid record, and the count of
  records lost that way is reported as
  :attr:`RecoveryResult.torn_records`.

State is **tiered** by the paper's bounded-history split
(:mod:`repro.core.bounds`): bounded-window ``ONCE``/``SINCE`` state —
at most ``window + 1`` timestamps per valuation, touched every step —
stays in the hot checkpoint document, while the minimal anchors of
*unbounded* operators spill to the store's SQLite cold tier
(:mod:`repro.store.sqlite`), keyed per aux node and bound to the
checkpoint by per-node digests.  Checkpoints spill whenever the
backend is durable and ``sqlite3`` is available.

Records are appended *after* a step commits, so a quarantined or
faulted input never reaches the journal and a crash mid-step loses at
most that one uncommitted step.

Three durability levels exist.  ``sync=False`` (default) flushes every
record to the OS, which survives a *process* kill but can lose
acknowledged steps to a *host* crash.  ``sync=True`` additionally
``fsync``\\ s every record and checkpoint boundary — unless the
``REPRO_FSYNC=off`` escape hatch downgrades it (test suites).
``sync="force"`` fsyncs regardless of the environment; the chaos and
durability jobs use it so no environment variable can weaken the
property under test.  Shard worker journals (:mod:`repro.shard`)
default to ``sync=True`` because a shard's acknowledgement is consumed
by the supervisor as a durability promise.

A journal directory is guarded by a ``journal.lock`` file stamped with
the owner's ``(pid, process start token)`` — see
:class:`repro.store.JournalLock` — so a second live writer is refused
while a dead owner's lock (even under a recycled pid) is stolen.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.auxiliary import OnceState, PrevState, SinceState
from repro.core.checker import Constraint, IncrementalChecker
from repro.core.parser import parse
from repro.core.violations import RunReport
from repro.db.algebra import Table
from repro.db.database import DatabaseState
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.errors import MonitorError, RecoveryError, ReproError
from repro.store import (
    JournalLock,
    MemoryStore,
    SegmentStore,
    StateStore,
    sqlite_available,
)
from repro.store.lock import LOCK_NAME
from repro.store.segment import CHECKPOINT_NAME

FORMAT_VERSION = 1

__all__ = [
    "CHECKPOINT_NAME", "LOCK_NAME", "FORMAT_VERSION",
    "JournalLock", "RunJournal", "RecoveryResult", "checkpoint_dict",
    "restore_checker", "recover",
    "tiered_checkpoint", "merge_cold_rows", "cold_node_ids",
]

PathLike = Union[str, Path]


def checkpoint_dict(checker: IncrementalChecker) -> dict:
    """Serialise a checker to a JSON-able checkpoint document."""
    aux_states: List[dict] = []
    for node, aux in checker._aux.items():
        if isinstance(aux, PrevState):
            aux_states.append(
                {
                    "type": "prev",
                    "last_time": aux._last_time,
                    "columns": list(aux._last_table.columns),
                    "rows": sorted(
                        [list(r) for r in aux._last_table.rows], key=repr
                    ),
                }
            )
        elif isinstance(aux, (OnceState, SinceState)):
            aux_states.append(
                {
                    "type": "once" if isinstance(aux, OnceState) else "since",
                    "anchors": sorted(
                        (
                            [list(valuation), list(times)]
                            for valuation, times in aux._anchors.anchors.items()
                        ),
                        key=repr,
                    ),
                }
            )
        else:  # pragma: no cover - no other aux kinds exist
            raise MonitorError(f"cannot checkpoint {type(aux).__name__}")
    return {
        "version": FORMAT_VERSION,
        "schema": checker.schema.to_dict(),
        "constraints": [
            {"name": c.name, "formula": str(c.formula)}
            for c in checker.constraints
        ],
        "collapse_unbounded": checker.collapse_unbounded,
        "share_subformulas": checker.share_subformulas,
        "time": checker._time,
        "index": checker._index,
        "state": checker.state.to_dict(),
        "aux": aux_states,
    }


def cold_node_ids(checker: IncrementalChecker) -> List[str]:
    """The aux node ids whose state is cold (unbounded ``ONCE``/``SINCE``).

    The paper's encoding makes the split exact: a bounded-window node
    keeps at most ``window + 1`` timestamps per valuation and is read
    every step (hot), while an unbounded node collapses to one minimal
    anchor per valuation — written once, read only at checkpoint and
    recovery time (cold).  Ids are positional (``aux<i>`` in the
    checker's registration order), the same order the checkpoint
    document's ``aux`` list uses.
    """
    ids = []
    for index, (node, aux) in enumerate(checker._aux.items()):
        if isinstance(aux, (OnceState, SinceState)) and (
            not node.interval.is_bounded
        ):
            ids.append(f"aux{index}")
    return ids


def tiered_checkpoint(
    checker: IncrementalChecker, spill: bool = True
) -> Tuple[dict, Dict[str, list]]:
    """Split a checkpoint into its hot document and cold anchor rows.

    Returns ``(document, cold_rows)``: the document is
    :func:`checkpoint_dict` with each cold node's ``anchors`` replaced
    by ``"cold": true``, and ``cold_rows`` maps the node id to the
    extracted ``[valuation, times]`` rows.  With ``spill=False`` (or
    no cold nodes) the document is the full classic checkpoint and
    ``cold_rows`` is empty.
    """
    document = checkpoint_dict(checker)
    cold_rows: Dict[str, list] = {}
    if not spill:
        return document, cold_rows
    for node_id in cold_node_ids(checker):
        index = int(node_id[len("aux"):])
        entry = document["aux"][index]
        cold_rows[node_id] = entry.pop("anchors")
        entry["cold"] = True
    return document, cold_rows


def merge_cold_rows(document: dict, cold_rows: Dict[str, list]) -> dict:
    """Fold spilled cold rows back into a tiered checkpoint document.

    Raises:
        RecoveryError: a document entry is marked cold but the store
            snapshot carries no rows for it (the cold tier and the
            checkpoint disagree about what was spilled).
    """
    for index, entry in enumerate(document.get("aux") or []):
        if not (isinstance(entry, dict) and entry.get("cold")):
            continue
        node_id = f"aux{index}"
        if node_id not in cold_rows:
            raise RecoveryError(
                f"checkpoint marks {node_id} as spilled but the cold "
                f"tier has no rows for it"
            )
        entry.pop("cold")
        entry["anchors"] = cold_rows[node_id]
    return document


def restore_checker(document: dict) -> IncrementalChecker:
    """Rebuild a checker from a checkpoint document."""
    version = document.get("version")
    if isinstance(version, int) and version > FORMAT_VERSION:
        raise MonitorError(
            f"checkpoint format version {version} is newer than this "
            f"build supports (<= {FORMAT_VERSION}); upgrade the library "
            f"to restore it"
        )
    if version != FORMAT_VERSION:
        raise MonitorError(
            f"unsupported checkpoint version: {version!r}"
        )
    schema = DatabaseSchema.from_dict(
        {
            name: [tuple(a) for a in attrs]
            for name, attrs in document["schema"].items()
        }
    )
    constraints = [
        Constraint(entry["name"], parse(entry["formula"]))
        for entry in document["constraints"]
    ]
    state = DatabaseState.from_rows(
        schema,
        {
            name: [tuple(row) for row in rows]
            for name, rows in document["state"].items()
        },
    )
    checker = IncrementalChecker(
        schema,
        constraints,
        initial=state,
        collapse_unbounded=document["collapse_unbounded"],
        share_subformulas=document.get("share_subformulas", False),
    )
    checker._time = document["time"]
    checker._index = document["index"]

    saved = document["aux"]
    nodes = list(checker._aux)
    if len(saved) != len(nodes):
        raise MonitorError(
            f"checkpoint has {len(saved)} auxiliary states but the "
            f"constraints define {len(nodes)} temporal nodes"
        )
    for node, entry in zip(nodes, saved):
        aux = checker._aux[node]
        if isinstance(aux, PrevState):
            if entry["type"] != "prev":
                raise MonitorError("auxiliary state kind mismatch")
            aux._last_time = entry["last_time"]
            aux._last_table = Table(
                tuple(entry["columns"]),
                [tuple(r) for r in entry["rows"]],
            )
        else:
            expected = "once" if isinstance(aux, OnceState) else "since"
            if entry["type"] != expected:
                raise MonitorError("auxiliary state kind mismatch")
            if entry.get("cold") or "anchors" not in entry:
                raise MonitorError(
                    "checkpoint entry was spilled to the cold tier and "
                    "never merged back (recover from the store, not "
                    "the raw document)"
                )
            aux._anchors.anchors = {
                tuple(valuation): list(times)
                for valuation, times in entry["anchors"]
            }
    return checker


# ----------------------------------------------------------------------
# journaled auto-checkpointing
# ----------------------------------------------------------------------


class RunJournal:
    """Write-ahead journal + periodic atomic checkpoints for one run.

    Attach it to a checker, then call :meth:`record` after every
    committed step: the pair is appended through the store backend and
    every ``checkpoint_every`` records a fresh atomic checkpoint is
    written and the journal segment rotated.  The directory is
    therefore always recoverable to the last *completed* step via
    :func:`recover`.

    Args:
        directory: store directory (required for the segment backend;
            ignored by an explicit in-memory backend).
        checkpoint_every: automatic checkpoint period, in records.
        sync: durability level (``False`` / ``True`` / ``"force"``,
            see the module docstring).
        backend: ``"segment"`` (durable, default), ``"memory"``, or a
            ready-made :class:`~repro.store.StateStore` instance.
            Unbounded-operator anchors spill to the store's SQLite
            cold tier whenever the backend is durable and ``sqlite3``
            exists.
        failpoints: storage failpoint names forwarded to the segment
            backend (chaos tests).
    """

    def __init__(
        self,
        directory: Optional[PathLike] = None,
        checkpoint_every: int = 64,
        sync=False,
        backend="segment",
        failpoints=(),
    ):
        if not isinstance(checkpoint_every, int) or checkpoint_every < 1:
            raise MonitorError(
                f"checkpoint_every must be a positive int, "
                f"got {checkpoint_every!r}"
            )
        self.directory = Path(directory) if directory is not None else None
        self.checkpoint_every = checkpoint_every
        #: durability level, passed through to the backend
        self.sync = sync
        if isinstance(backend, StateStore):
            self.store = backend
        elif backend == "memory":
            self.store = MemoryStore()
        elif backend == "segment":
            if self.directory is None:
                raise MonitorError(
                    "the segment journal backend needs a directory"
                )
            self.store = SegmentStore(
                self.directory, sync=sync, failpoints=failpoints
            )
        else:
            raise MonitorError(
                f"unknown journal backend {backend!r}; expected "
                f"'segment', 'memory', or a StateStore instance"
            )
        self._spill = self.store.durable and sqlite_available()
        self.records_written = 0
        self.checkpoints_written = 0
        self._since_checkpoint = 0

    @property
    def spills_cold(self) -> bool:
        """Whether checkpoints spill cold anchors to the SQLite tier."""
        return self._spill

    @property
    def checkpoint_path(self) -> Optional[Path]:
        """Path of the current checkpoint file (None for in-memory)."""
        return getattr(self.store, "checkpoint_path", None)

    @property
    def journal_path(self) -> Optional[Path]:
        """Path of the active journal segment (None for in-memory)."""
        return getattr(self.store, "journal_path", None)

    @property
    def steps_since_checkpoint(self) -> int:
        """Journaled steps not yet covered by a checkpoint (the
        checkpoint's age — how much replay a crash right now would
        cost)."""
        return self._since_checkpoint

    def attach(self, checker: IncrementalChecker) -> None:
        """Write an initial checkpoint of ``checker``."""
        self.checkpoint(checker)

    def record(
        self,
        time: int,
        txn: Transaction,
        checker: IncrementalChecker,
    ) -> bool:
        """Journal one applied step; maybe auto-checkpoint.

        Returns:
            True when this record triggered an automatic checkpoint.
        """
        entry = {"t": time}
        entry.update(txn.to_dict())
        self.store.append(entry)
        self.records_written += 1
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint(checker)
            return True
        return False

    def checkpoint(self, checker: IncrementalChecker) -> None:
        """Write an atomic checkpoint now and rotate the journal.

        The checkpoint commits *before* old journal segments are
        reclaimed; a crash between the two leaves records that are
        already covered by the checkpoint, which :func:`recover`
        detects by timestamp and skips.
        """
        document, cold_rows = tiered_checkpoint(
            checker, spill=self._spill
        )
        self.store.checkpoint(document, cold_rows)
        self.checkpoints_written += 1
        self._since_checkpoint = 0

    def abandon(self) -> None:
        """Simulate this journal's process dying (chaos tests): leave
        every on-disk artifact as a kill would, but drop the writer
        lock's in-process claim so recovery in this same process can
        steal it like a respawn."""
        self.store.abandon()

    def close(self) -> None:
        """Flush and close the backend; release the writer lock."""
        self.store.close()

    def __repr__(self) -> str:
        return (
            f"RunJournal({self.directory}, "
            f"every={self.checkpoint_every}, "
            f"backend={type(self.store).__name__}, "
            f"{self.records_written} record(s), "
            f"{self.checkpoints_written} checkpoint(s))"
        )


class RecoveryResult:
    """Outcome of :func:`recover`: the restored checker plus replay facts."""

    __slots__ = (
        "checker", "replayed", "checkpoint_time", "journal_entries",
        "torn_records", "fallback",
    )

    def __init__(
        self,
        checker: IncrementalChecker,
        replayed: RunReport,
        checkpoint_time: Optional[int],
        journal_entries: int,
        torn_records: int = 0,
        fallback: bool = False,
    ):
        #: the restored checker, positioned at the last completed step
        self.checker = checker
        #: step reports produced while replaying the journal
        self.replayed = replayed
        #: checker time as of the restored checkpoint (before replay)
        self.checkpoint_time = checkpoint_time
        #: journal records replayed on top of the checkpoint
        self.journal_entries = journal_entries
        #: journal records lost to damage (truncated at the last valid
        #: record); 0 for a clean directory
        self.torn_records = torn_records
        #: True when the current checkpoint was damaged and the
        #: retained previous generation was restored instead
        self.fallback = fallback

    def __repr__(self) -> str:
        extra = ""
        if self.torn_records:
            extra += f", {self.torn_records} torn"
        if self.fallback:
            extra += ", fallback"
        return (
            f"RecoveryResult(checkpoint t={self.checkpoint_time}, "
            f"replayed {self.journal_entries} journal record(s), "
            f"now at t={self.checker.now}{extra})"
        )


def recover(directory: PathLike) -> RecoveryResult:
    """Restore a crashed run from its journal directory, leniently.

    Loads the newest usable checkpoint (falling back to the retained
    previous generation when the current one fails its checksum or its
    cold-tier digests), merges spilled cold anchors back in, then
    replays every retained journal record whose timestamp lies after
    the checkpoint (records at or before it are left-overs of a crash
    between checkpoint-write and segment-reclaim, and are skipped).
    Journal damage does not abort recovery: the replay is truncated at
    the last valid record and the loss reported via
    :attr:`RecoveryResult.torn_records`.  The returned checker is
    bit-for-bit the checker of an uninterrupted run over the same
    prefix — the chaos suite asserts this across crash points and
    injected corruptions.

    Raises:
        RecoveryError: if ``directory`` does not exist, no usable
            checkpoint survives (both generations missing or damaged),
            or a verified journal
            record does not replay against the restored state.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise RecoveryError(
            f"cannot recover from {directory}: no such directory"
        )
    with SegmentStore(directory, lock=False) as store:
        snapshot = store.load()
    if snapshot.document is None:
        raise RecoveryError(
            f"cannot recover from {directory}: no usable checkpoint "
            f"(missing, or every generation failed verification)"
        )
    try:
        document = merge_cold_rows(snapshot.document, snapshot.cold_rows)
        checker = restore_checker(document)
    except RecoveryError:
        raise
    except MonitorError as exc:
        raise RecoveryError(
            f"cannot recover from {directory}: {exc}"
        ) from None
    except (KeyError, TypeError, AttributeError) as exc:
        raise RecoveryError(
            f"cannot recover from {directory}: malformed checkpoint, "
            f"missing or ill-typed field ({type(exc).__name__}: {exc})"
        ) from None
    checkpoint_time = checker.now
    replayed = RunReport()
    entries = 0
    for record in snapshot.records:
        time = record.get("t")
        if not isinstance(time, int):
            raise RecoveryError(
                f"{directory}: journal record lacks an integer "
                f"timestamp: {record!r}"
            )
        if checker.now is not None and time <= checker.now:
            continue  # already covered by the checkpoint
        try:
            txn = Transaction.from_dict(record)
            replayed.add(checker.step(time, txn))
        except ReproError as exc:
            raise RecoveryError(
                f"{directory}: journal record at t={time} does not "
                f"replay against the restored checkpoint: {exc}"
            ) from None
        entries += 1
    return RecoveryResult(
        checker, replayed, checkpoint_time, entries,
        torn_records=snapshot.torn_records,
        fallback=snapshot.fallback,
    )
