"""The one step path through :meth:`Monitor.step`.

Two contracts pinned here:

* every on/off combination of the step-path features (quarantine
  policy, segment journal, telemetry, statewatch, violation handler)
  gives the bare run's verdicts on clean steps, journals only committed
  steps, dispatches every violation once, and lets telemetry and
  statewatch see every step — the skipped one included — in the order
  journal → handlers → telemetry → statewatch;
* a step that raises a fault closes the tracer spans it opened, on
  every engine, whether or not a fault policy is configured.
"""

import itertools

import pytest

from repro.core.monitor import ENGINES, Monitor
from repro.db import DatabaseSchema, Transaction
from repro.errors import SchemaError, UnknownRelationError, ValueTypeError
from repro.obs import MonitorInstrumentation, Tracer
from repro.workloads import library_workload

STEPS = 60
SEED = 5
#: clean-stream position a poisoned step is slipped in front of
POISON_AT = 25
POISON = Transaction({"ghost": [(1,)]})

FEATURES = ("quarantine", "journal", "telemetry", "statewatch", "handler")
COMBOS = list(itertools.product((False, True), repeat=len(FEATURES)))


def combo_id(flags):
    return "-".join(n for n, on in zip(FEATURES, flags) if on) or "bare"


def verdicts(report):
    return [
        (v.constraint, v.time, repr(v.witnesses)) for v in report.violations
    ]


@pytest.fixture(scope="module")
def workload():
    return library_workload(violation_rate=0.3)


@pytest.fixture(scope="module")
def stream(workload):
    return list(workload.stream(STEPS, seed=SEED))


@pytest.fixture(scope="module")
def bare(workload, stream):
    monitor = workload.monitor()
    reference = [verdicts(monitor.step(t, txn)) for t, txn in stream]
    assert sum(map(len, reference)) > 0, "the stream must violate"
    return reference


@pytest.mark.parametrize("flags", COMBOS, ids=combo_id)
def test_step_order_matrix(workload, stream, bare, tmp_path, flags):
    on = dict(zip(FEATURES, flags))
    monitor = Monitor(
        workload.schema,
        fault_policy="quarantine" if on["quarantine"] else None,
    )
    for constraint in workload.constraints:
        monitor.add_constraint(constraint.name, constraint.formula)
    journal = (
        monitor.enable_journal(tmp_path / "journal", checkpoint_every=16)
        if on["journal"] else None
    )
    telemetry = monitor.enable_telemetry() if on["telemetry"] else None
    statewatch = monitor.enable_statewatch() if on["statewatch"] else None

    committed = stepped = 0
    seen = []  # (committed, stepped, journaled, verdicts, observed)

    def handler(_violation):
        seen.append((
            committed,
            stepped,
            journal.records_written if journal is not None else None,
            telemetry.steps_processed if telemetry is not None else None,
            statewatch.steps_observed if statewatch is not None else None,
        ))

    if on["handler"]:
        monitor.on_violation(handler)

    clean = []
    for index, (time, txn) in enumerate(stream):
        if on["quarantine"] and index == POISON_AT:
            stepped += 1
            assert monitor.step(time, POISON).skipped
        committed += 1
        stepped += 1
        clean.append(verdicts(monitor.step(time, txn)))

    assert clean == bare
    if journal is not None:
        # the faulted step never reaches the journal
        assert journal.records_written == len(stream)
        journal.close()
    if on["handler"]:
        assert len(seen) == sum(map(len, bare))
        for done, total, journaled, verdicted, observed in seen:
            # journal record, then handlers, then telemetry/statewatch
            assert journaled in (None, done)
            assert verdicted in (None, total - 1)
            assert observed in (None, total - 1)
    if telemetry is not None:
        assert telemetry.steps_processed == stepped
        assert telemetry.skipped_steps == int(on["quarantine"])
    if statewatch is not None:
        assert statewatch.steps_observed == stepped
    if on["quarantine"]:
        assert monitor.resilience.quarantined == 1


TYPED = DatabaseSchema.from_dict({"p": [("a", "int")], "q": [("a", "int")]})
FAULTS = {
    SchemaError: Transaction({"p": [(1, 2)]}),
    ValueTypeError: Transaction({"p": [("x",)]}),
    UnknownRelationError: POISON,
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("fault", list(FAULTS), ids=lambda e: e.__name__)
def test_raising_bare_step_closes_its_spans(engine, fault):
    tracer = Tracer()
    monitor = Monitor(
        TYPED, engine=engine,
        instrumentation=MonitorInstrumentation(tracer=tracer),
    )
    monitor.add_constraint("c", "q(x) -> ONCE p(x)")
    monitor.step(0, Transaction({"p": [(1,)]}))
    with pytest.raises(fault) as info:
        monitor.step(1, FAULTS[fault])
    assert type(info.value) is fault
    assert tracer.open_spans == 0
    # the next step's span is a root again, and balanced
    monitor.step(2, Transaction({"q": [(1,)]}))
    assert tracer.open_spans == 0
    last = [e for e in tracer.events if e["name"] == "step"][-1]
    assert last["parent"] is None
