"""The benchmark's three workloads: inputs, set-up, timed phase, recovery.

Each workload is closed loop with one caller: the next transaction is
handed to the monitor only after the previous ``StepReport`` returned,
as a DBMS commit waits for its verdict.  Everything runs in this one
process; no thread or worker process is started.

One *repetition* ("rep") of a workload builds a fresh monitor (timed as
set-up), replays the workload's whole seeded stream through it (the
timed phase), then recovers the journal it left behind and steps a
held-back tail of the stream with the recovered monitor.  A run repeats
reps until its time is up.  Inputs are generated once per run, before
any timer starts, from the seed alone.
"""

from __future__ import annotations

import gc
import os
import shutil
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro import Monitor
from repro.core.parser import parse_constraints
from repro.ingest import IterableSource
from repro.resilience.chaos import (
    disorder_arrivals,
    duplicate_arrivals,
    split_sources,
)
from repro.shard import ShardedMonitor
from repro.workloads import payments_workload, sensors_workload

from tracing import BenchInstrumentation, SpanRecorder, wrap_methods

SENSORS = 10
ACCOUNTS = 10
#: timed steps per rep
HOT_STEPS = 2000
PAYMENTS_STEPS = 1956  # 30 checkpoints of 64, then 36 records to replay
SHARDED_STEPS = 1500
#: sensors-hot steps journaled after its bare timed phase
HOT_JOURNALED = 100
#: held-back steps the recovered monitor checks
TAIL_STEPS = 64
#: sensors-hot prefix checked against the naive engine
NAIVE_PREFIX = 120
CHECKPOINT_EVERY = 64
WATERMARK = 4
DUPLICATE_RATE = 0.05
SHARDS = 2
#: monitors built (each timed as set-up) and journal recoveries timed
#: per rep; the rep keeps the last of each
SETUPS = 3
RECOVERIES = 3


def constraint_text(workload) -> str:
    """The workload's constraints as a constraint file."""
    return "".join(f"{c.name}: {c.formula};\n" for c in workload.constraints)


def verdict_key(report):
    """One step's verdict: its time, constraint names and witness rows."""
    return (
        report.time,
        tuple(
            (
                v.constraint,
                tuple(sorted(tuple(sorted(d.items()))
                             for d in v.witness_dicts())),
            )
            for v in report.violations
        ),
    )


def violation_count(keys) -> int:
    return sum(len(key[1]) for key in keys)


def run_bare(schema, text: str, stream, engine: str = "active"):
    """Verdict keys of a bare monitor over ``stream`` (the reference).

    The reference engine defaults to ``active``, whose ECA-rule tables
    share no code with the incremental checker's auxiliary states, so a
    fault there cannot hide by also being in the reference.
    """
    monitor = Monitor(schema, engine=engine)
    monitor.add_constraints_text(text)
    return [verdict_key(monitor.step(t, txn)) for t, txn in stream]


def directory_bytes(root: Path) -> int:
    return sum(
        (Path(folder) / name).stat().st_size
        for folder, _dirs, files in os.walk(root)
        for name in files
    )


class Inputs:
    """Everything a run needs, generated from the seed before timing."""

    def __init__(self, schema, text, stream, tail, reference,
                 journaled=(), arrivals=(), replays=0):
        self.schema = schema
        self.text = text
        self.constraints = len(parse_constraints(text))
        #: the timed phase's (time, txn) stream
        self.stream = list(stream)
        #: sensors-hot only: steps journaled after the timed phase
        self.journaled = list(journaled)
        #: held-back steps checked by the recovered monitor
        self.tail = list(tail)
        #: reference verdict keys for stream + journaled + tail
        self.reference = reference
        #: payments-ops only: the disordered, duplicated deliveries
        self.arrivals = list(arrivals)
        self.replays = replays
        #: reference checks made while preparing (name -> passed)
        self.checks: Dict[str, bool] = {}


class Rep:
    """What one repetition measured."""

    def __init__(self):
        #: seconds of each set-up and each recovery
        self.setups: List[float] = []
        self.recoveries: List[float] = []
        #: seconds from hand-off (or source yield) to the report
        self.latencies: List[float] = []
        #: clock readings: the timed phase's start, then each report's
        #: return, so marks[j] - marks[i] is the wall of steps i..j-1
        self.marks: List[float] = []
        self.steps = 0
        self.aux_max = 0
        #: verdict keys of timed, journaled and tail steps, in order
        self.keys: list = []
        #: steps a fault policy skipped or degraded, or ingest lost
        self.lost = 0
        #: counts that must repeat exactly for one seed
        self.counts: Dict[str, object] = {}
        #: other per-layer measurements
        self.layer: Dict[str, float] = {}
        #: traced reps only: spans, hook counts, release waits, and
        #: what the spans reduce to (layer table, totals per span name,
        #: traced µs per step)
        self.spans: Optional[list] = None
        self.obs: Optional[BenchInstrumentation] = None
        self.releases: List[float] = []
        self.table: Dict[str, float] = {}
        self.totals: Dict[str, tuple] = {}
        self.traced_us = 0.0


def _lost(report) -> int:
    return 1 if (report.skipped or report.degraded) else 0


def _closed_loop(rep: Rep, step: Callable, stream, aux: Callable,
                 recorder: Optional[SpanRecorder]) -> None:
    """Hand each transaction over once the previous report returned."""
    latencies = rep.latencies
    marks = rep.marks
    reports = []
    aux_max = 0
    gc.collect()
    if recorder is not None:
        recorder.begin("run")
    marks.append(perf_counter())
    for index, (time, txn) in enumerate(stream):
        if recorder is not None:
            recorder.step = index
            recorder.begin("core.monitor.step")
        began = perf_counter()
        report = step(time, txn)
        ended = perf_counter()
        if recorder is not None:
            recorder.end()
        latencies.append(ended - began)
        marks.append(ended)
        reports.append(report)
        tuples = aux()
        if tuples > aux_max:
            aux_max = tuples
    if recorder is not None:
        recorder.end()
        rep.spans = recorder.finished()
    rep.steps = len(stream)
    rep.aux_max = aux_max
    rep.lost += sum(_lost(r) for r in reports)
    rep.keys.extend(verdict_key(r) for r in reports)


def _timed(times: List[float], action: Callable):
    """Run ``action`` after a full collection, appending its seconds."""
    gc.collect()
    started = perf_counter()
    result = action()
    times.append(perf_counter() - started)
    return result


def _set_up(rep: Rep, build: Callable, discard: Callable):
    """Time ``SETUPS`` builds ``build(k)``; discard all but the last."""
    for k in range(SETUPS):
        built = _timed(rep.setups, lambda: build(k))
        if k < SETUPS - 1:
            discard(built)
    return built


def _recover(rep: Rep, recover: Callable, close: Callable, directory: Path):
    """Time ``RECOVERIES`` recoveries of ``directory``; return the last.

    All but the last recover an untimed copy, so each starts from the
    directory the rep left behind.  ``recover(path)`` returns
    ``(monitor, replayed records)``; every recovery must replay the
    same number of records.
    """
    replayed = []
    for k in range(RECOVERIES - 1):
        copy = directory.with_name(f"{directory.name}-copy{k}")
        shutil.copytree(directory, copy)
        recovered, count = _timed(rep.recoveries, lambda: recover(copy))
        replayed.append(count)
        close(recovered)
        shutil.rmtree(copy)
    recovered, count = _timed(rep.recoveries, lambda: recover(directory))
    rep.counts["core.persist.replayed_records"] = count
    rep.counts["core.persist.recoveries_agree"] = all(
        n == count for n in replayed)
    return recovered


def _recover_monitor(directory: Path):
    recovered, result = Monitor.recover(
        directory, sync=False, checkpoint_every=CHECKPOINT_EVERY
    )
    return recovered, result.journal_entries


def _close_journal(monitor) -> None:
    monitor.journal.close()


def _trace_journal(journal, recorder) -> None:
    wrap_methods(journal, recorder, {
        "record": "core.persist.record",
        "checkpoint": "core.persist.checkpoint",
    })


# ----------------------------------------------------------------------
# sensors-hot
# ----------------------------------------------------------------------

class SensorsHot:
    name = "sensors-hot"
    why = (
        "bare incremental Monitor, 10 sensors, 2000 steps/rep, closed "
        "loop 1 caller; the checker hot path (db apply, aux advance, "
        "foeval) is nearly the whole step"
    )

    def prepare(self, seed: int) -> Inputs:
        workload = sensors_workload(sensors=SENSORS)
        text = constraint_text(workload)
        total = HOT_STEPS + HOT_JOURNALED + TAIL_STEPS
        stream = list(workload.stream(total, seed))
        reference = run_bare(workload.schema, text, stream)
        inputs = Inputs(
            workload.schema, text, stream[:HOT_STEPS],
            stream[HOT_STEPS + HOT_JOURNALED:], reference,
            journaled=stream[HOT_STEPS:HOT_STEPS + HOT_JOURNALED],
        )
        naive = run_bare(workload.schema, text, stream[:NAIVE_PREFIX],
                         engine="naive")
        inputs.checks["naive prefix equals incremental"] = (
            naive == reference[:NAIVE_PREFIX]
            and violation_count(naive) > 0
        )
        return inputs

    def run(self, inputs: Inputs, workdir: Path,
            recorder: Optional[SpanRecorder]) -> Rep:
        rep = Rep()

        def build(_k):
            monitor = Monitor(inputs.schema, engine="incremental")
            monitor.add_constraints_text(inputs.text)
            monitor.checker
            return monitor

        monitor = _set_up(rep, build, lambda _monitor: None)
        checker = monitor.checker
        if recorder is not None:
            rep.obs = BenchInstrumentation(recorder)
            monitor.instrument(rep.obs)
        _closed_loop(rep, monitor.step, inputs.stream,
                     checker.aux_tuple_count, recorder)
        monitor.instrument(None)
        rep.counts["core.checker.evaluations"] = checker.evaluations
        rep.counts["shard.checker_steps"] = 0
        rep.counts["core.persist.checkpoints"] = 0
        rep.layer["store.bytes_per_step"] = 0.0

        # recovery, after the bare timed phase: journal a stretch of
        # the stream, stop, recover, and check the held-back tail
        directory = workdir / "journal"
        monitor.enable_journal(directory, checkpoint_every=CHECKPOINT_EVERY,
                               sync=False)
        for time, txn in inputs.journaled:
            report = monitor.step(time, txn)
            rep.lost += _lost(report)
            rep.keys.append(verdict_key(report))
        monitor.journal.close()
        recovered = _recover(rep, _recover_monitor, _close_journal, directory)
        for time, txn in inputs.tail:
            report = recovered.step(time, txn)
            rep.lost += _lost(report)
            rep.keys.append(verdict_key(report))
        recovered.journal.close()
        return rep


# ----------------------------------------------------------------------
# payments-ops
# ----------------------------------------------------------------------

class TimedSource(IterableSource):
    """A multiplexed source that stamps when it yields each arrival.

    ``on_first_poll`` runs once, when the pipeline first polls — by then
    the monitor's ``ingest`` property holds the pipeline being fed.
    """

    def __init__(self, arrivals, on_first_poll=None):
        super().__init__(arrivals, name="feed", multiplexed=True)
        #: first yield time per timestamp (replays keep the first)
        self.first_yield: Dict[int, float] = {}
        self.depth_max = 0
        self.reorderer = None
        self._on_first_poll = on_first_poll

    def poll(self):
        if self._on_first_poll is not None:
            self._on_first_poll(self)
            self._on_first_poll = None
        if self.reorderer is not None:
            # the buffer depth the previous push left behind
            self.depth_max = max(self.depth_max, self.reorderer.depth)
        item = super().poll()
        if item is not None:
            self.first_yield.setdefault(item[0], perf_counter())
        return item


class PaymentsOps:
    name = "payments-ops"
    why = (
        "payments, 10 accounts, 1956 steps/rep via Monitor.feed (2 "
        "sources, watermark 4, 5% replays), segment journal flush-only, "
        "telemetry, statewatch, handler, quarantine; 1 caller"
    )

    def prepare(self, seed: int) -> Inputs:
        workload = payments_workload(accounts=ACCOUNTS)
        text = constraint_text(workload)
        stream = list(workload.stream(PAYMENTS_STEPS + TAIL_STEPS, seed))
        head = stream[:PAYMENTS_STEPS]
        triples, skews = split_sources(head, seed=seed, sources=2)
        arrivals = disorder_arrivals(
            triples, seed=seed + 1, watermark=WATERMARK, skews=skews
        )
        arrivals, replays = duplicate_arrivals(
            arrivals, seed=seed + 2, rate=DUPLICATE_RATE, window=WATERMARK
        )
        reference = run_bare(workload.schema, text, stream)
        return Inputs(
            workload.schema, text, head, stream[PAYMENTS_STEPS:],
            reference, arrivals=arrivals, replays=replays,
        )

    def run(self, inputs: Inputs, workdir: Path,
            recorder: Optional[SpanRecorder]) -> Rep:
        rep = Rep()

        def build(k):
            handled = []
            monitor = Monitor(inputs.schema, engine="incremental",
                              fault_policy="quarantine")
            monitor.add_constraints_text(inputs.text)
            monitor.checker
            journal = monitor.enable_journal(
                workdir / f"journal-{k}", checkpoint_every=CHECKPOINT_EVERY,
                sync=False,
            )
            telemetry = monitor.enable_telemetry()
            statewatch = monitor.enable_statewatch()
            monitor.on_violation(handled.append)
            return monitor, journal, telemetry, statewatch, handled

        monitor, journal, telemetry, statewatch, handled = _set_up(
            rep, build, lambda built: built[1].close())
        directory = workdir / f"journal-{SETUPS - 1}"
        checker = monitor.checker

        if recorder is not None:
            rep.obs = BenchInstrumentation(recorder)
            monitor.instrument(rep.obs)
            _trace_journal(journal, recorder)
            wrap_methods(telemetry, recorder, {
                "check_begin": "obs.telemetry",
                "verdict": "obs.telemetry",
            })
            wrap_methods(statewatch, recorder, {"observe": "obs.statewatch"})

        def released(_method, emitted):
            now = perf_counter()
            rep.releases.extend(
                now - source.first_yield[time] for time, _txn in emitted
            )

        def attach(source):
            source.reorderer = monitor.ingest.reorderer
            if recorder is not None:
                wrap_methods(source.reorderer, recorder, {
                    "push": "ingest.push",
                    "retire": "ingest.push",
                    "flush": "ingest.push",
                }, on_return=released)

        source = TimedSource(inputs.arrivals, on_first_poll=attach)
        reports = []
        latencies = rep.latencies
        marks = rep.marks
        aux_max = 0
        step = monitor.step

        def timed_step(time, txn):
            nonlocal aux_max
            if recorder is not None:
                recorder.step = len(reports)
                recorder.begin("core.monitor.step")
            report = step(time, txn)
            ended = perf_counter()
            if recorder is not None:
                recorder.end()
            latencies.append(ended - source.first_yield.pop(time))
            marks.append(ended)
            reports.append(report)
            tuples = checker.aux_tuple_count()
            if tuples > aux_max:
                aux_max = tuples
            return report

        monitor.step = timed_step
        checkpoints = journal.checkpoints_written
        gc.collect()
        if recorder is not None:
            recorder.begin("run")
        marks.append(perf_counter())
        monitor.feed([source], watermark=WATERMARK)
        if recorder is not None:
            recorder.end()
            rep.spans = recorder.finished()
        monitor.instrument(None)
        rep.steps = len(reports)
        rep.aux_max = aux_max
        rep.keys = [verdict_key(r) for r in reports]
        reorder = source.reorderer
        queue = monitor.ingest.queue
        rep.lost = (sum(_lost(r) for r in reports) + reorder.late
                    + reorder.invalid + queue.shed)
        rep.counts.update({
            "core.checker.evaluations": checker.evaluations,
            "shard.checker_steps": 0,
            "core.persist.checkpoints":
                journal.checkpoints_written - checkpoints,
            "ingest.duplicates": reorder.duplicates,
            "ingest.late": reorder.late,
            "ingest.identity": (
                reorder.accepted + reorder.late + reorder.duplicates
                + reorder.invalid == source.delivered
                == len(inputs.arrivals)
            ),
            "handler.violations": len(handled),
        })
        rep.layer["store.bytes_per_step"] = (
            directory_bytes(directory) / rep.steps
        )
        rep.layer["ingest.buffer_depth_max"] = source.depth_max
        rep.layer["ingest.arrivals"] = source.delivered

        journal.close()
        recovered = _recover(rep, _recover_monitor, _close_journal, directory)
        for time, txn in inputs.tail:
            report = recovered.step(time, txn)
            rep.lost += _lost(report)
            rep.keys.append(verdict_key(report))
        recovered.journal.close()
        return rep


# ----------------------------------------------------------------------
# sensors-sharded
# ----------------------------------------------------------------------

class SensorsSharded:
    name = "sensors-sharded"
    why = (
        "sensors-hot's stream, 1500 steps/rep, through ShardedMonitor "
        "(key sensor, 2 shards, inline transport, flush-only shard "
        "journals); 1 caller; the cost of sharding"
    )

    def prepare(self, seed: int) -> Inputs:
        workload = sensors_workload(sensors=SENSORS)
        text = constraint_text(workload)
        stream = list(workload.stream(SHARDED_STEPS + TAIL_STEPS, seed))
        reference = run_bare(workload.schema, text, stream)
        return Inputs(workload.schema, text, stream[:SHARDED_STEPS],
                      stream[SHARDED_STEPS:], reference)

    def run(self, inputs: Inputs, workdir: Path,
            recorder: Optional[SpanRecorder]) -> Rep:
        rep = Rep()

        def build(k):
            monitor = ShardedMonitor(
                inputs.schema, key="sensor", shards=SHARDS,
                transport="inline", journal_root=workdir / f"shards-{k}",
                sync=False, checkpoint_every=CHECKPOINT_EVERY,
            )
            monitor.add_constraints_text(inputs.text)
            monitor.supervisor
            return monitor

        monitor = _set_up(rep, build, ShardedMonitor.close)
        root = workdir / f"shards-{SETUPS - 1}"
        supervisor = monitor.supervisor

        workers = [w.monitor for w in supervisor.workers]
        if recorder is not None:
            rep.obs = BenchInstrumentation(recorder)
            wrap_methods(supervisor, recorder, {
                "submit": "shard.submit",
                "flush": "shard.submit",
            })
            for worker in workers:
                worker.instrument(rep.obs)
                _trace_journal(worker.journal, recorder)
                wrap_methods(worker, recorder, {"step": "core.monitor.step"})
        checkers = [w.checker for w in workers]
        checkpoints = sum(w.journal.checkpoints_written for w in workers)

        def aux():
            return sum(c.aux_tuple_count() for c in checkers)

        _closed_loop(rep, monitor.step, inputs.stream, aux, recorder)
        accounting = monitor.accounting()
        rep.counts.update({
            "core.checker.evaluations": sum(c.evaluations for c in checkers),
            "shard.checker_steps": sum(c.steps_processed for c in checkers),
            "core.persist.checkpoints": sum(
                w.journal.checkpoints_written for w in workers
            ) - checkpoints,
            "shard.accounting": (
                accounting["steps_fed"] == accounting["verdicts"]
                == len(inputs.stream)
            ),
        })
        rep.layer["shard.mailbox_depth_max"] = supervisor.max_depth
        rep.layer["store.bytes_per_step"] = directory_bytes(root) / rep.steps
        for worker in workers:
            worker.instrument(None)

        monitor.close()
        recovered = _recover(rep, _recover_sharded, ShardedMonitor.close,
                             root)
        for time, txn in inputs.tail:
            report = recovered.step(time, txn)
            rep.lost += _lost(report)
            rep.keys.append(verdict_key(report))
        recovered.close()
        return rep


def _recover_sharded(root: Path):
    recovered, info = ShardedMonitor.recover(root, transport="inline")
    return recovered, sum(r["replayed"] for r in info["recoveries"])


WORKLOADS = {w.name: w for w in (SensorsHot(), PaymentsOps(),
                                 SensorsSharded())}


def fresh_directory(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
