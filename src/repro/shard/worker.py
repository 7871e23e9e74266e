"""Shard workers: isolated monitors the supervisor can kill and revive.

Each worker owns one full :class:`~repro.core.monitor.Monitor` (its
own incremental checker and, when a journal root is configured, its
own ``RunJournal`` under ``<root>/shard-NNNN/``) and processes the
sub-transactions routed to its partition in submission order.

Two transports share one protocol (``submit`` / ``pump`` / ``alive`` /
``kill``):

* :class:`InlineWorker` — in-process and fully deterministic; the
  chaos harness's injection points (kill-before-step, torn handoff,
  stall) are exact, which is what the keystone equivalence tests need;
* :class:`ProcessWorker` — a real ``multiprocessing`` child behind a
  pipe, for genuine fault isolation (a crash is ``os._exit``, not a
  flag).

Durability protocol: a worker journals every applied step (``sync``
defaults on for shard journals) but *manages its own checkpoint
cadence*, checkpointing only after the step's acknowledgement is on
its way out.  The auto-cadence inside ``RunJournal`` would truncate
the journal in the same call that appends the record, so a torn
handoff (crash after apply+journal, before ack) at a checkpoint
boundary would swallow the record and lose the verdict; with the
worker-managed order the torn record is always still in the tail, and
recovery replay regenerates the exact report the ack would have
carried.

A recovered worker answers redelivered steps at or before its restored
frontier from the replay (:attr:`InlineWorker.replayed`) instead of
re-stepping — re-applying a transaction twice would corrupt the
checker — and falls back to a *degraded* fragment (all its constraint
names deferred) only when the verdict predates the last checkpoint and
is genuinely unrecoverable.
"""

from __future__ import annotations

import os
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.monitor import Monitor
from repro.core.violations import StepReport
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.temporal.clock import Timestamp

#: RunJournal auto-checkpoint cadence is disabled for shard workers —
#: the worker checkpoints explicitly, after acking (see module doc).
NEVER_CHECKPOINT = 1 << 60

#: Exit codes a chaos-crashed worker process dies with (diagnosable in
#: the supervisor's fault record).
CRASH_EXIT_BEFORE = 17
CRASH_EXIT_TORN = 18


class WorkerSpec:
    """Everything needed to (re)build one shard's monitor.

    Plain picklable data — the process transport ships it through the
    pipe, and the supervisor rebuilds from it on every respawn.
    """

    __slots__ = (
        "shard",
        "schema",
        "constraints",
        "journal_dir",
        "checkpoint_every",
        "sync",
    )

    def __init__(
        self,
        shard: int,
        schema: dict,
        constraints: List[tuple],
        journal_dir: Optional[str] = None,
        checkpoint_every: int = 64,
        sync: bool = True,
    ):
        self.shard = shard
        self.schema = schema
        self.constraints = list(constraints)
        self.journal_dir = str(journal_dir) if journal_dir else None
        self.checkpoint_every = checkpoint_every
        self.sync = sync

    def __repr__(self) -> str:
        return (
            f"WorkerSpec(shard={self.shard}, "
            f"{len(self.constraints)} constraint(s), "
            f"journal={self.journal_dir!r})"
        )


def build_worker_monitor(spec: WorkerSpec) -> Monitor:
    """A fresh monitor for one shard, journaled when configured."""
    schema = DatabaseSchema.from_dict(spec.schema)
    monitor = Monitor(schema, engine="incremental")
    for name, text in spec.constraints:
        monitor.add_constraint(name, text)
    if spec.journal_dir is not None:
        Path(spec.journal_dir).mkdir(parents=True, exist_ok=True)
        monitor.enable_journal(
            spec.journal_dir,
            checkpoint_every=NEVER_CHECKPOINT,
            sync=spec.sync,
        )
    return monitor


def recover_worker_monitor(spec: WorkerSpec):
    """Rebuild a shard monitor from its journal after a crash.

    Returns ``(monitor, replayed, result)`` where ``replayed`` maps
    each journal-replayed timestamp to the regenerated
    :class:`~repro.core.violations.StepReport` — the acknowledgements
    the dead incarnation never delivered.
    """
    monitor, result = Monitor.recover(
        spec.journal_dir,
        sync=spec.sync,
        checkpoint_every=NEVER_CHECKPOINT,
    )
    replayed = {report.time: report for report in result.replayed.steps}
    return monitor, replayed, result


def degraded_fragment(time, constraints) -> StepReport:
    """The fragment for a verdict that is lost but accounted.

    Carries no violations and defers every constraint the shard
    evaluates — the merged step is explicitly *degraded*, never
    silently dropped.  The index is a sentinel; the supervisor assigns
    the global index at merge time.
    """
    return StepReport(
        time, -1, [], deferred=tuple(c.name for c in constraints)
    )


def redelivered_report(monitor: Monitor, replayed, time) -> Optional[StepReport]:
    """The answer to a step this incarnation already holds, else None.

    A redelivered step at or before the monitor's frontier is answered
    from the journal replay — re-applying it would corrupt the checker
    — and a pre-checkpoint verdict, genuinely unrecoverable, degrades
    explicitly.
    """
    now = monitor.now
    if now is None or time > now:
        return None
    report = replayed.get(time)
    if report is None:
        report = degraded_fragment(time, monitor.constraints)
    return report


def take_chaos_event(chaos: List[dict], seq: int) -> Optional[dict]:
    """The first unfired chaos event for submission ``seq`` (now fired)."""
    for event in chaos:
        if not event.get("fired") and event.get("step") == seq:
            event["fired"] = True
            return event
    return None


def checkpoint_after_ack(monitor: Monitor, since: int, every: int) -> int:
    """Count one acknowledged step, checkpointing every ``every``.

    Returns the new count of steps since the last checkpoint.
    """
    # the checkpoint follows the ack so a torn-mode crash's record stays replayable
    if monitor.journal is None:
        return since
    since += 1
    if since < every:
        return since
    monitor.checkpoint()
    return 0


class WorkerAck:
    """One processed step flowing back to the supervisor."""

    __slots__ = ("shard", "seq", "report", "replayed")

    def __init__(
        self, shard: int, seq: int, report: StepReport, replayed: bool
    ):
        self.shard = shard
        self.seq = seq
        self.report = report
        self.replayed = replayed

    def __repr__(self) -> str:
        mark = ", replayed" if self.replayed else ""
        return f"WorkerAck(shard={self.shard}, seq={self.seq}{mark})"


class InlineWorker:
    """Deterministic in-process worker with exact chaos injection.

    The supervisor drives it by discrete ``pump()`` calls — one
    mailbox item per pump — so stalls, crashes, and backpressure are
    reproducible pump-for-pump in tests.

    Args:
        spec: the shard's build recipe.
        chaos: injected fault events for this shard (dicts with
            ``step`` = global submission seq, ``mode`` in
            ``before``/``torn``/``stall``); each fires at most once.
        monitor: a pre-built monitor (the respawn path passes the
            recovered one).
        replayed: journal-replayed reports by timestamp (respawn path).
    """

    transport = "inline"
    #: inline workers have no startup latency — always heartbeat-ready
    ready = True

    def __init__(
        self,
        spec: WorkerSpec,
        chaos: Optional[List[dict]] = None,
        monitor: Optional[Monitor] = None,
        replayed: Optional[Dict[Timestamp, StepReport]] = None,
    ):
        self.spec = spec
        self.shard = spec.shard
        self.monitor = monitor if monitor is not None else (
            build_worker_monitor(spec)
        )
        self.chaos = list(chaos or ())
        self.replayed = dict(replayed or {})
        self.mailbox: deque = deque()
        self.dead = False
        self.crash_mode: Optional[str] = None
        #: steps applied by THIS incarnation (a respawn starts at 0 —
        #: the replay-not-reprocess assertions key off this)
        self.steps_applied = 0
        self._stall = 0
        self._since_checkpoint = 0

    @property
    def alive(self) -> bool:
        return not self.dead

    @property
    def depth(self) -> int:
        """Mailbox backlog (the supervisor's backpressure signal)."""
        return len(self.mailbox)

    def submit(self, seq: int, time: Timestamp, txn: Transaction) -> None:
        self.mailbox.append((seq, time, txn))

    def pump(self) -> Optional[WorkerAck]:
        """Process at most one mailbox item; return its ack, if any.

        Returns ``None`` when dead, stalled, idle — or when a chaos
        kill fired (the supervisor discovers the death via
        :attr:`alive` and recovers the lost acknowledgement from the
        journal).
        """
        if self.dead:
            return None
        if self._stall > 0:
            self._stall -= 1
            return None
        if not self.mailbox:
            return None
        seq, time, txn = self.mailbox[0]
        report = redelivered_report(self.monitor, self.replayed, time)
        if report is not None:
            self.mailbox.popleft()
            return WorkerAck(self.shard, seq, report, replayed=True)
        event = take_chaos_event(self.chaos, seq)
        if event is not None:
            mode = event.get("mode")
            if mode == "stall":
                self._stall = int(event.get("duration", 1))
                return None
            if mode == "before":
                # died before applying: nothing journaled, the
                # supervisor redelivers to the respawn
                self.dead = True
                self.crash_mode = "before"
                return None
        self.mailbox.popleft()
        report = self.monitor.step(time, txn)
        self.steps_applied += 1
        if event is not None and event.get("mode") == "torn":
            # died after apply+journal, before ack: the record is in
            # the journal tail, replay regenerates this exact report
            self.dead = True
            self.crash_mode = "torn"
            return None
        self._since_checkpoint = checkpoint_after_ack(
            self.monitor, self._since_checkpoint, self.spec.checkpoint_every
        )
        return WorkerAck(self.shard, seq, report, replayed=False)

    def kill(self) -> None:
        """Tear the worker down (crash cleanup or tombstoning)."""
        self.dead = True
        self.close()

    def close(self) -> None:
        """Release the journal (file handle and writer lock)."""
        if self.monitor.journal is not None:
            self.monitor.journal.close()

    def __repr__(self) -> str:
        state = "dead" if self.dead else f"depth={self.depth}"
        return f"InlineWorker(shard={self.shard}, {state})"


# ----------------------------------------------------------------------
# process transport
# ----------------------------------------------------------------------

def _worker_main(conn, spec: WorkerSpec, chaos: List[dict],
                 recovered: bool) -> None:
    """Child-process loop: rebuild the monitor, serve the pipe."""
    if recovered:
        monitor, replayed, _ = recover_worker_monitor(spec)
    else:
        monitor = build_worker_monitor(spec)
        replayed = {}
    # readiness handshake: imports + journal replay can take long
    # enough that the supervisor's heartbeat would otherwise count the
    # warm-up as a stall and kill a healthy child
    conn.send(("ready",))
    chaos = list(chaos)
    since = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            if monitor.journal is not None:
                monitor.journal.close()
            conn.send(("stopped",))
            break
        if kind == "ping":
            conn.send(("pong",))
            continue
        _, seq, time, txn = message
        report = redelivered_report(monitor, replayed, time)
        if report is not None:
            conn.send(("ack", seq, report, True))
            continue
        event = take_chaos_event(chaos, seq)
        if event is not None and event.get("mode") == "before":
            os._exit(CRASH_EXIT_BEFORE)
        report = monitor.step(time, txn)
        if event is not None and event.get("mode") == "torn":
            os._exit(CRASH_EXIT_TORN)
        conn.send(("ack", seq, report, False))
        since = checkpoint_after_ack(monitor, since, spec.checkpoint_every)


class ProcessWorker:
    """A shard monitor in its own OS process, behind a pipe.

    Same protocol as :class:`InlineWorker`; crashes are real process
    exits, detected as a broken pipe or a dead child.  ``pump`` polls
    briefly rather than blocking so the supervisor's round-robin loop
    keeps servicing the other shards while one is slow.
    """

    transport = "process"

    def __init__(
        self,
        spec: WorkerSpec,
        chaos: Optional[List[dict]] = None,
        recovered: bool = False,
        poll_timeout: float = 0.05,
    ):
        import multiprocessing

        self.spec = spec
        self.shard = spec.shard
        self.poll_timeout = poll_timeout
        self.steps_applied = 0
        self.dead = False
        #: set once the child reports its monitor is built/recovered;
        #: the supervisor's stall heartbeat skips warming workers
        self.ready = False
        #: the pipe broke on a send; the child is gone, but buffered
        #: acknowledgements may still be readable — death is declared
        #: only once they are drained
        self._broken = False
        self.crash_mode: Optional[str] = None
        self._inflight: deque = deque()
        ctx = multiprocessing.get_context()
        self._conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child, spec, list(chaos or ()), recovered),
            daemon=True,
        )
        self.process.start()
        child.close()

    @property
    def alive(self) -> bool:
        # a dead child's buffered acknowledgements stay readable after
        # it exits; the worker counts as alive until they are drained,
        # so the supervisor computes the crash frontier from a fully
        # acknowledged pending set
        if self.dead:
            return False
        if (
            self._broken or not self.process.is_alive()
        ) and not self._conn.poll():
            self.dead = True
        return not self.dead

    @property
    def depth(self) -> int:
        return len(self._inflight)

    def submit(self, seq: int, time: Timestamp, txn: Transaction) -> None:
        self._inflight.append(seq)
        try:
            self._conn.send(("step", seq, time, txn))
        except (BrokenPipeError, OSError):
            self._broken = True

    def pump(self) -> Optional[WorkerAck]:
        if self.dead:
            return None
        try:
            if not self._conn.poll(self.poll_timeout):
                if self._broken or not self.process.is_alive():
                    self.dead = True
                return None
            message = self._conn.recv()
        except (EOFError, OSError):
            self.dead = True
            return None
        if message[0] == "ready":
            self.ready = True
            return None
        if message[0] != "ack":
            return None
        _, seq, report, replayed = message
        if seq in self._inflight:
            self._inflight.remove(seq)
        if not replayed:
            self.steps_applied += 1
        return WorkerAck(self.shard, seq, report, replayed)

    def kill(self) -> None:
        self.dead = True
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        self._conn.close()

    def close(self) -> None:
        if self.dead:
            return
        try:
            self._conn.send(("stop",))
            if self._conn.poll(2):
                self._conn.recv()
        except (BrokenPipeError, OSError, EOFError):
            pass
        self.process.join(timeout=5)
        self.dead = True
        self._conn.close()

    def __repr__(self) -> str:
        state = "dead" if self.dead else f"pid={self.process.pid}"
        return f"ProcessWorker(shard={self.shard}, {state})"
