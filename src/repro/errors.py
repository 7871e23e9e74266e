"""Exception hierarchy for the ``repro`` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
The hierarchy mirrors the package layout: schema/value errors come from
the database substrate, parse and safety errors from the constraint
compiler, and monitoring errors from the checker front end.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the library."""


class SchemaError(ReproError):
    """A relation, attribute, or database schema is ill-formed or violated.

    Raised for duplicate relation names, arity mismatches, references to
    undeclared relations, and tuples whose values do not fit the declared
    attribute types.
    """


class ValueTypeError(SchemaError):
    """A value does not belong to the domain declared for its attribute."""


class UnknownRelationError(SchemaError):
    """A query or transaction referenced a relation the schema lacks."""


class TransactionError(ReproError):
    """A transaction is inconsistent (e.g. inserts and deletes overlap)."""


class AlgebraError(ReproError):
    """A relational-algebra operation received incompatible operands."""


class QueryError(ReproError):
    """A first-order query could not be evaluated."""


class UnsafeFormulaError(QueryError):
    """A formula falls outside the safe-range (monitorable) fragment.

    The message explains which subformula is unsafe and why, e.g. a
    negation whose free variables are not bound by a positive conjunct, or
    a ``SINCE`` whose left operand uses variables its right operand does
    not bind.
    """


class ParseError(ReproError):
    """The constraint text could not be parsed.

    Attributes:
        line: 1-based line of the offending token.
        column: 1-based column of the offending token.
    """

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class TimeError(ReproError):
    """A timestamp violates the time model (e.g. clock moved backwards)."""


class MonitorError(ReproError):
    """The monitor was driven incorrectly (e.g. stepped before begun)."""


class StoreError(ReproError):
    """The durable state store was misconfigured or misused.

    Raised by :mod:`repro.store` for invalid backend parameters, double
    attachment, or writes against a closed store — not for damaged
    data, which is :class:`StoreCorruption`.
    """


class StoreCorruption(StoreError):
    """A durable record failed its integrity check.

    Raised (or collected, on the lenient scrub/recovery paths) when a
    framed record's length prefix, blake2s checksum, or format version
    does not verify — a torn write, bit flip, or lost page.

    Attributes:
        kind: ``"torn"`` (truncated frame), ``"checksum"`` (digest
            mismatch), ``"garbled"`` (unparseable frame), or
            ``"version"`` (format newer than this build).
        path: file the record lives in (``None`` for in-memory data).
        offset: byte offset of the damaged frame within the file.
    """

    def __init__(self, message: str, kind: str = "garbled",
                 path=None, offset=None):
        super().__init__(message)
        self.kind = kind
        self.path = path
        self.offset = offset


class RecoveryError(MonitorError):
    """A checkpoint or journal could not be restored.

    Raised when crash recovery (:func:`repro.core.persist.recover`)
    finds a missing/corrupt checkpoint, a journal record that cannot be
    parsed (e.g. a tail torn by a crash mid-write), or journal content
    the restored checker rejects.  The message always carries the path
    and the reason; raw ``JSONDecodeError``/``KeyError`` never escape.
    """


class ShardingError(MonitorError):
    """A constraint or schema cannot be hash-partitioned as requested.

    Raised by :class:`repro.shard.ShardPlan` when the shard key names no
    schema attribute, or when a constraint's compiled violation formula
    does not route cleanly — its keyed atoms disagree on the key
    variable, bind it under a quantifier (the explicit-``FORALL`` trap),
    or touch no keyed relation at all under the ``reject`` policy.  The
    message always carries the constraint name and a rewrite hint.
    """


class HandlerError(MonitorError):
    """One or more violation handlers raised during dispatch.

    Every registered handler still runs for every violation — a raising
    handler can neither mask the step's report nor starve handlers
    registered after it.  The collected failures are re-raised as one
    exception after dispatch completes.

    Attributes:
        report: the :class:`~repro.core.violations.StepReport` whose
            dispatch failed (the verdicts are valid; only reactions
            failed).
        failures: list of ``(violation, exception)`` pairs, in dispatch
            order.
    """

    def __init__(self, report, failures):
        first = failures[0][1] if failures else None
        super().__init__(
            f"{len(failures)} violation handler call(s) failed "
            f"(first: {first!r}); step report: {report!r}"
        )
        self.report = report
        self.failures = list(failures)


class LintError(MonitorError):
    """A constraint was rejected by static analysis in strict mode.

    Raised by :meth:`Monitor.add_constraint` (and checker construction)
    when ``strict=True`` and the linter reports at least one
    error-severity diagnostic for the constraint being registered.

    Attributes:
        diagnostics: the :class:`repro.lint.Diagnostic` list that
            caused the rejection (errors first).
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class TelemetryError(MonitorError):
    """An SLO spec or health snapshot is malformed.

    Raised when parsing an SLO document (:func:`repro.obs.load_slo_file`)
    or validating/merging a health snapshot
    (:func:`repro.obs.validate_health`, :func:`repro.obs.merge_health`)
    encounters an unknown indicator, an out-of-range target, mismatched
    snapshot versions, or histograms with incompatible bucket bounds.
    """


class HistoryError(ReproError):
    """A history is malformed (non-increasing timestamps, schema drift)."""


#: Exception types a fault policy intercepts at the step boundary.
#: Everything else (programming errors, ``MonitorError`` misuse) still
#: propagates — a policy shields the monitor from bad *inputs*, not
#: from bugs.
FAULT_ERRORS = (SchemaError, TransactionError, TimeError, HistoryError)


class IngestError(ReproError):
    """The ingestion frontier was misconfigured or misused.

    Raised for invalid watermark/lateness/queue parameters and for
    driving an :class:`~repro.ingest.IngestPipeline` incorrectly — not
    for bad *data*, which is dead-lettered and counted instead.
    """


class SourceUnavailable(IngestError):
    """A source failed transiently; polling it again may succeed.

    Raised by a :class:`~repro.ingest.Source` when its backing feed is
    momentarily unreachable, and re-raised by
    :class:`~repro.ingest.RetryingSource` once its retry budget (and
    deadline) is exhausted.
    """


class CircuitOpenError(SourceUnavailable):
    """A circuit breaker is refusing polls after repeated failures.

    Raised immediately (no retry, no sleep) while the breaker's cooldown
    is running — the fast-fail half of the retry/backoff story.
    """
