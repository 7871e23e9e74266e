"""The `Monitor` façade — the library's main entry point.

Wraps constraint registration, parsing, compilation, safety checking,
and an exchangeable checking engine behind one object::

    from repro import Monitor, Transaction

    monitor = Monitor(schema)
    monitor.add_constraint(
        "return-window",
        "FORALL p, b. returned(p, b) -> ONCE[0,14] borrowed(p, b)",
    )
    report = monitor.step(3, Transaction.builder()
                              .insert("borrowed", ("ann", 7)).build())
    assert report.ok

Engines:

* ``"incremental"`` (default) — the paper's bounded-history checker;
* ``"naive"`` — stores the history, re-evaluates from scratch each step;
* ``"naive-memo"`` — stores the history with cross-step memoisation;
* ``"active"`` — the ECA-rule (trigger) implementation over the active
  database substrate (:mod:`repro.active`);
* ``"adom"`` — prefix-active-domain semantics (:mod:`repro.core.adom`),
  which accepts constraints outside the safe-range fragment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.core.checker import Constraint, IncrementalChecker
from repro.core.formulas import Formula
from repro.core.naive import NaiveChecker
from repro.core.parser import parse, parse_constraints
from repro.core.violations import RunReport, StepReport
from repro.db.database import DatabaseState
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.errors import FAULT_ERRORS, HandlerError, HistoryError, MonitorError
from repro.temporal.clock import Timestamp
from repro.temporal.stream import UpdateStream

ENGINES = ("incremental", "naive", "naive-memo", "active", "adom")

#: Engines whose per-constraint evaluation loop supports deadline
#: shedding (the active engine evaluates inside rule firings).
SHEDDING_ENGINES = ("incremental", "naive", "naive-memo", "adom")


class MonitorFacade:
    """The façade shared by :class:`Monitor` and the sharded monitor.

    Constraint registration, the violation and alert channels, the
    fault policy, and ingestion.  A subclass supplies ``_started``
    (registration freezes once it is true), ``_compile`` (one
    constraint's admission checks), and ``_fault_index`` (the step
    index a skipped report carries).
    """

    #: ``engine`` label of the fault runtime's metric series (``None``:
    #: the monitor's own :attr:`engine`)
    _fault_label: Optional[str] = None

    def __init__(
        self, schema: DatabaseSchema, instrumentation, fault_policy,
        quarantine_log,
    ):
        self.schema = schema
        self.instrumentation = instrumentation
        self.constraints: List[Constraint] = []
        self._violation_handlers: List = []
        self._alert_handlers: List = []
        self._resilience = None
        self._ingest = None
        if fault_policy is not None or quarantine_log is not None:
            self._configure_fault_policy(fault_policy, quarantine_log)

    def _metrics(self):
        """The metrics registry behind the instrumentation, if any."""
        return getattr(self.instrumentation, "metrics", None)

    def _configure_fault_policy(self, fault_policy, quarantine_log) -> None:
        from repro.resilience import FaultPolicy, QuarantineLog, ResilienceRuntime

        if quarantine_log is not None and not isinstance(
            quarantine_log, QuarantineLog
        ):
            quarantine_log = QuarantineLog(quarantine_log)
        if fault_policy is None:
            fault_policy = FaultPolicy.QUARANTINE
        self._resilience = ResilienceRuntime(
            fault_policy,
            quarantine=quarantine_log,
            metrics=self._metrics(),
            engine=self._fault_label or self.engine,
        )

    @property
    def resilience(self):
        """The fault-handling runtime (None when no policy is set)."""
        return self._resilience

    @property
    def ingest(self):
        """The last :class:`~repro.ingest.IngestPipeline` fed (or None)."""
        return self._ingest

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def add_constraint(
        self, name: str, formula: Union[str, Formula]
    ) -> Constraint:
        """Register one constraint (text or formula) before stepping.

        Compilation (normalisation + safety check + schema validation,
        and shard-plan admission on a sharded monitor) happens
        immediately, so unsafe, mistyped, or unshardable constraints
        fail fast with a diagnostic rather than at the first step.
        """
        if self._started:
            raise MonitorError(
                "constraints must be registered before the first step"
            )
        if any(c.name == name for c in self.constraints):
            raise MonitorError(f"duplicate constraint name {name!r}")
        constraint = self._compile(name, formula)
        self.constraints.append(constraint)
        return constraint

    def add_constraints_text(self, text: str) -> List[Constraint]:
        """Register a whole constraint file (``[name :] formula ; ...``)."""
        return [
            self.add_constraint(name, formula)
            for name, formula in parse_constraints(text)
        ]

    # ------------------------------------------------------------------
    # handler channels
    # ------------------------------------------------------------------

    def on_violation(self, handler) -> None:
        """Register ``handler(violation)`` to run on every violation.

        Handlers fire synchronously inside :meth:`step`/:meth:`run`, in
        registration order — the hook for alerting, journaling, or
        compensation logic (a sharded monitor dispatches the *merged*
        violations).  Each handler call is isolated: a raising handler
        can neither mask the step's report nor skip the handlers after
        it.  Collected failures are re-raised as one
        :class:`~repro.errors.HandlerError` after dispatch (monitoring
        must not silently drop reactions) — unless a ``skip`` or
        ``quarantine`` fault policy is active, in which case they are
        counted and dead-lettered instead.
        """
        self._violation_handlers.append(handler)

    def on_alert(self, handler) -> None:
        """Register ``handler(alert)`` to run on every alert.

        A :class:`Monitor` fires :class:`~repro.obs.slo.SLOAlert`
        burn-rate alerts and statewatch bound/leak alerts synchronously
        inside :meth:`step`; a sharded monitor fires each shard
        crash/stall/tombstone :class:`~repro.resilience.FaultRecord`.
        Same isolation discipline as :meth:`on_violation`.
        """
        self._alert_handlers.append(handler)

    def _dispatch(self, report: StepReport) -> StepReport:
        if not self._violation_handlers:
            return report
        failures = []
        for violation in report.violations:
            for handler in self._violation_handlers:
                try:
                    handler(violation)
                except Exception as exc:  # noqa: BLE001 — isolation point
                    failures.append((violation, exc))
        if failures:
            resilience = self._resilience
            if resilience is not None and resilience.policy.value != "fail_fast":
                resilience.handle_handler_failures(report, failures)
            else:
                raise HandlerError(report, failures) from failures[0][1]
        return report

    def _emit_alerts(self, alerts) -> None:
        if not alerts or not self._alert_handlers:
            return
        failures = []
        for alert in alerts:
            for handler in self._alert_handlers:
                try:
                    handler(alert)
                except Exception as exc:  # noqa: BLE001 — isolation point
                    failures.append((alert, exc))
        if failures:
            raise HandlerError(alerts, failures) from failures[0][1]

    # ------------------------------------------------------------------
    # ingestion and out-of-band faults
    # ------------------------------------------------------------------

    def feed(
        self,
        sources,
        watermark: int = 0,
        max_lateness: Optional[int] = None,
        skew=None,
        retry=None,
        queue_capacity: int = 1024,
        backpressure: str = "block",
        consumer_rate: Optional[int] = None,
        pressure_deadline: Optional[float] = None,
        urgent: Sequence[str] = (),
        max_buffer: int = 4096,
        quarantine=None,
    ) -> RunReport:
        """Pull from unordered, unreliable sources until they run dry.

        The ingestion counterpart of :meth:`run`: where ``run`` demands
        a clean, strictly-increasing stream, ``feed`` accepts a list of
        :class:`~repro.ingest.Source`-likes (any iterable of
        ``(time, txn)`` pairs qualifies) and hardens the boundary — a
        watermark reorderer absorbs disorder up to ``watermark`` clock
        units, normalises per-source ``skew``, deduplicates replays,
        and dead-letters too-late events (to ``quarantine``, default
        the fault policy's log); flaky sources are retried per
        ``retry``; a bounded queue applies ``backpressure``.  See
        :class:`~repro.ingest.IngestPipeline` for every knob, and
        :attr:`ingest` for the accounting after the run.
        """
        from repro.ingest import IngestPipeline

        pipeline = IngestPipeline(
            self,
            sources,
            watermark=watermark,
            max_lateness=max_lateness,
            skew=skew,
            retry=retry,
            queue_capacity=queue_capacity,
            backpressure=backpressure,
            consumer_rate=consumer_rate,
            pressure_deadline=pressure_deadline,
            urgent=urgent,
            max_buffer=max_buffer,
            quarantine=quarantine,
        )
        self._ingest = pipeline
        return pipeline.run()

    def record_fault(
        self,
        kind: str,
        reason: str,
        time: Optional[Timestamp] = None,
        payload=None,
    ) -> StepReport:
        """Report an out-of-band fault (e.g. an unparseable stream line).

        For callers that decode the stream themselves — such as the CLI
        reading a history file leniently — and hit records that never
        become a transaction at all.  Routed through the same fault
        policy as step-boundary faults, so it raises under ``fail_fast``
        (or with no policy configured).
        """
        error = HistoryError(reason)
        if self._resilience is None:
            raise error
        return self._resilience.handle(
            "history" if kind is None else kind,
            error,
            time,
            payload,
            self._fault_index(),
        )


class Monitor(MonitorFacade):
    """Registers constraints and checks them over an update stream.
    Registration, handlers, fault policy and :meth:`feed` are
    :class:`MonitorFacade`'s.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        engine: str = "incremental",
        initial: Optional[DatabaseState] = None,
        instrumentation=None,
        fault_policy=None,
        quarantine_log=None,
        step_deadline=None,
        urgent: Sequence[str] = (),
        strict: bool = False,
        lint_config=None,
        share_subformulas: bool = False,
    ):
        """Args:
            schema: the database schema.
            engine: one of :data:`ENGINES`.
            initial: base state the first transaction applies to.
            instrumentation: optional
                :class:`repro.obs.instrument.Instrumentation` (e.g. a
                :class:`repro.obs.instrument.MonitorInstrumentation`)
                receiving runtime telemetry from the engine; ``None``
                (default) disables all hooks.
            fault_policy: optional
                :class:`~repro.resilience.FaultPolicy` (or its string
                name): ``"fail_fast"``, ``"skip"``, or ``"quarantine"``.
                ``None`` (default) lets faults raise out of the step.
            quarantine_log: optional
                :class:`~repro.resilience.QuarantineLog` or a path for
                one; implies ``fault_policy="quarantine"`` when no
                policy is given.
            step_deadline: optional per-step evaluation budget — either
                seconds (a float) or a prepared
                :class:`~repro.resilience.StepBudget`.  When a step
                exceeds it, non-urgent constraint evaluations are shed
                and the step is reported ``degraded``.  Supported by
                the :data:`SHEDDING_ENGINES`.
            urgent: constraint names never shed under deadline pressure
                (only meaningful with ``step_deadline`` seconds).
            strict: lint each constraint at registration and reject it
                with :class:`~repro.errors.LintError` when the linter
                reports an error-severity diagnostic (see
                :mod:`repro.lint`).
            lint_config: optional
                :class:`~repro.lint.LintConfig` used by ``strict``
                registration; defaults to the standard configuration
                (with the safe-range rule disabled for the ``adom``
                engine, which evaluates outside the safe fragment).
            share_subformulas: maintain one auxiliary state per
                rename-equivalence class of temporal subformulas
                instead of one per structurally distinct node, fanning
                each class's virtual table out to its owning
                constraints.  Verdicts are bit-for-bit identical to the
                unshared run; overlapping constraint sets get faster
                steps and less state (see :mod:`repro.analysis.plan`,
                ``repro plan``, and benchmark E14).  Incremental
                engine only.
        """
        if engine not in ENGINES:
            raise MonitorError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        if share_subformulas and engine != "incremental":
            raise MonitorError(
                f"share_subformulas requires the incremental engine, "
                f"not {engine!r}"
            )
        self.engine = engine
        self.share_subformulas = bool(share_subformulas)
        self.initial = initial
        self.strict = strict
        self.lint_config = lint_config
        self._checker = None
        self._journal = None
        self._budget = None
        self._telemetry = None
        self._statewatch = None
        super().__init__(schema, instrumentation, fault_policy, quarantine_log)
        if step_deadline is not None:
            self._configure_deadline(step_deadline, urgent)

    # ------------------------------------------------------------------
    # resilience configuration
    # ------------------------------------------------------------------

    def _publish_sharing_metrics(self, checker) -> None:
        """Expose the checker's subformula-dedup accounting as gauges."""
        metrics = self._metrics()
        if metrics is None:
            return
        stats = checker.sharing_stats()
        metrics.gauge(
            "repro_aux_classes",
            help="auxiliary states maintained (equivalence classes)",
            engine=self.engine,
        ).set(stats["classes"])
        metrics.gauge(
            "repro_aux_shared_nodes",
            help="temporal nodes served by another class member's state",
            engine=self.engine,
        ).set(stats["shared_nodes"])
        metrics.gauge(
            "repro_aux_dedup_ratio",
            help="maintained auxiliary states over distinct temporal "
                 "nodes (1.0 = nothing shared)",
            engine=self.engine,
        ).set(stats["dedup_ratio"])

    def _configure_deadline(self, step_deadline, urgent) -> None:
        from repro.resilience import StepBudget

        if self.engine not in SHEDDING_ENGINES:
            raise MonitorError(
                f"step deadlines require an engine with a sheddable "
                f"evaluation loop {SHEDDING_ENGINES}, not {self.engine!r}"
            )
        if not isinstance(step_deadline, StepBudget):
            step_deadline = StepBudget(step_deadline, urgent=urgent)
        if step_deadline.telemetry is None:
            step_deadline.telemetry = self._telemetry
        self._budget = step_deadline
        if self._checker is not None:
            self._checker.budget = step_deadline

    def set_step_deadline(self, step_deadline, urgent: Sequence[str] = ()):
        """Install, replace, or (with ``None``) clear the step budget.

        Takes effect immediately, including on an already-built engine —
        the hook the ingest pipeline uses to arm a tighter deadline
        while its queue runs hot and disarm it once the backlog drains.
        """
        if step_deadline is None:
            self._budget = None
            if self._checker is not None:
                self._checker.budget = None
            return
        self._configure_deadline(step_deadline, urgent)

    def enable_telemetry(self, slo=None, clock=None):
        """Attach end-to-end event-time telemetry (and, optionally, SLOs).

        Stamps every event through the arrival → reorder-release →
        check → verdict path into per-stage latency histograms (see
        :class:`~repro.obs.telemetry.EventTimeTelemetry`), samples
        frontier lag and queue pressure continuously, and — when
        ``slo`` is given — evaluates burn-rate alert rules on every
        verdict, routing fired alerts to :meth:`on_alert` handlers.

        Args:
            slo: anything :func:`repro.obs.slo.coerce_slo_engine`
                accepts — an :class:`~repro.obs.slo.SLOEngine`, specs,
                an SLO document dict, or a path to an SLO file.
            clock: optional wall-clock source (tests inject a fake).

        Must be called before the first step/feed; the pipeline and
        step path pick the telemetry up when they start.  The metric
        families land in the instrumentation's registry when one is
        attached (otherwise in the telemetry's own registry).
        """
        from repro.obs.slo import coerce_slo_engine
        from repro.obs.telemetry import EventTimeTelemetry

        if self._telemetry is not None:
            raise MonitorError("telemetry is already enabled")
        kwargs = {} if clock is None else {"clock": clock}
        self._telemetry = EventTimeTelemetry(
            metrics=self._metrics(), slo=coerce_slo_engine(slo), **kwargs
        )
        if self._budget is not None:
            self._budget.telemetry = self._telemetry
        return self._telemetry

    def enable_statewatch(
        self,
        sample_every: int = 8,
        leak_window: int = 32,
        leak_slope: float = 1.0,
        top_k: int = 8,
        flight=None,
        flight_capacity: int = 256,
    ):
        """Attach the state observatory (and, optionally, a flight box).

        After every step, measures the engine's auxiliary state per
        temporal subformula (via the uniform
        :mod:`~repro.core.statespace` protocol), compares it against
        the analytic per-node bound of
        :func:`repro.core.bounds.node_tuple_bound`, and tracks growth
        and heavy-hitter valuations.  Fired
        :class:`~repro.obs.statewatch.StateAlert` bound/leak alerts
        route to :meth:`on_alert` handlers — the same channel as SLO
        alerts, including handler isolation.

        Args:
            sample_every: cadence (steps) of the expensive work (deep
                byte sizes, sketch updates, metric exports); the bound
                and leak rules run every step regardless.
            leak_window: sliding window (steps) of the growth rule.
            leak_slope: tuples/step slope at which the leak rule fires.
            top_k: heavy-hitter valuations retained per node.
            flight: optional flight recorder — a
                :class:`~repro.obs.flight.FlightRecorder` or a path to
                dump ``repro-flight/1`` artifacts at.
            flight_capacity: ring size when ``flight`` is a path.

        Returns:
            The attached :class:`~repro.obs.statewatch.StateWatch`.
        """
        from repro.obs.flight import FlightRecorder
        from repro.obs.statewatch import StateWatch

        if self._statewatch is not None:
            raise MonitorError("statewatch is already enabled")
        if flight is not None and not isinstance(flight, FlightRecorder):
            flight = FlightRecorder(flight, capacity=flight_capacity)
        self._statewatch = StateWatch(
            metrics=self._metrics(),
            sample_every=sample_every,
            leak_window=leak_window,
            leak_slope=leak_slope,
            top_k=top_k,
            flight=flight,
        )
        return self._statewatch

    def health(self):
        """The monitor's current state as a mergeable health snapshot.

        A versioned JSON-able dict (``repro-health/1``) aggregating
        stage latencies, frontier lag, ingest/fault/shed accounting,
        journal age, and SLO budget state; see
        :func:`repro.obs.health.build_health`.  Snapshots from N
        shards fold into one with
        :func:`repro.obs.health.merge_health`.
        """
        from repro.obs.health import build_health

        return build_health(self)

    @property
    def telemetry(self):
        """The attached event-time telemetry (None when disabled)."""
        return self._telemetry

    @property
    def statewatch(self):
        """The attached state observatory (None when disabled)."""
        return self._statewatch

    @property
    def journal(self):
        """The attached :class:`~repro.core.persist.RunJournal`, if any."""
        return self._journal

    @property
    def budget(self):
        """The per-step :class:`~repro.resilience.StepBudget`, if any."""
        return self._budget

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    @property
    def _started(self) -> bool:
        return self._checker is not None

    def _compile(self, name: str, formula: Union[str, Formula]) -> Constraint:
        if isinstance(formula, str):
            formula = parse(formula)
        if self.strict:
            self._lint_registration(name, formula)
        constraint = Constraint(
            name, formula, require_safe=self.engine != "adom"
        )
        constraint.validate_schema(self.schema)
        if self.engine == "adom":
            from repro.core.adom import check_adom_compatible

            check_adom_compatible(constraint.violation_formula)
        return constraint

    def _lint_registration(self, name: str, formula: Formula) -> None:
        """Strict-mode gate: reject ``formula`` on lint errors.

        The whole registered set plus the newcomer is linted so
        cross-constraint rules (duplicates) see the new constraint in
        context; previously accepted constraints cannot re-fail, since
        they passed the same gate.
        """
        from repro.lint import LintConfig
        from repro.lint.linter import reject_lint_errors

        config = self.lint_config
        if config is None and self.engine == "adom":
            config = LintConfig(disabled=frozenset({"RTC004"}))
        pairs = [(c.name, c.formula) for c in self.constraints]
        pairs.append((name, formula))
        reject_lint_errors(self.schema, pairs, config)

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------

    @property
    def checker(self):
        """The underlying engine (created lazily at first use)."""
        if self._checker is None:
            self._checker = self._build_checker()
            if self._budget is not None:
                self._checker.budget = self._budget
        return self._checker

    def _build_checker(self):
        if self.engine == "incremental":
            checker = IncrementalChecker(
                self.schema, self.constraints, initial=self.initial,
                instrumentation=self.instrumentation,
                share_subformulas=self.share_subformulas,
            )
            self._publish_sharing_metrics(checker)
            return checker
        if self.engine == "naive":
            return NaiveChecker(
                self.schema, self.constraints, initial=self.initial,
                memoize=False, instrumentation=self.instrumentation,
            )
        if self.engine == "naive-memo":
            return NaiveChecker(
                self.schema, self.constraints, initial=self.initial,
                memoize=True, instrumentation=self.instrumentation,
            )
        if self.engine == "active":
            from repro.active.compiler import ActiveChecker

            return ActiveChecker(
                self.schema, self.constraints, initial=self.initial,
                instrumentation=self.instrumentation,
            )
        from repro.core.adom import ActiveDomainChecker

        return ActiveDomainChecker(
            self.schema, self.constraints, initial=self.initial,
            instrumentation=self.instrumentation,
        )

    def instrument(self, instrumentation) -> None:
        """Attach (or detach, with ``None``) runtime instrumentation.

        Takes effect immediately, including on an already-built engine —
        the hook for resuming from a checkpoint and for toggling
        telemetry mid-run.
        """
        self.instrumentation = instrumentation
        if self._resilience is not None:
            self._resilience.metrics = self._metrics()
        if self._checker is not None:
            self._checker.instrumentation = instrumentation
            engine = getattr(self._checker, "engine", None)
            if engine is not None and hasattr(engine, "instrumentation"):
                engine.instrumentation = instrumentation

    def step(self, time: Timestamp, txn: Transaction) -> StepReport:
        """Apply one transaction at ``time`` and check all constraints.

        The one step path, in order: telemetry check-begin → the fault
        boundary around the engine step → journal record → violation
        dispatch → degrade accounting → telemetry verdict and alerts →
        statewatch.  A faulted step (schema, transaction, clock,
        malformed payload) closes the trace spans it left open, then
        raises — or, with a fault policy configured, is skipped or
        quarantined: never journaled or dispatched, but still seen by
        telemetry and statewatch.  The checker is untouched by a
        faulted step because every engine validates before mutating.
        """
        telemetry = self._telemetry
        if telemetry is not None:
            try:
                telemetry.check_begin(time)
            except TypeError:  # unhashable timestamp — the fault boundary's job
                telemetry = None
        checker = self.checker
        resilience = self._resilience
        tracer = getattr(self.instrumentation, "tracer", None)
        depth = 0 if tracer is None else tracer.open_spans
        try:
            if resilience is not None and not isinstance(txn, Transaction):
                raise HistoryError(
                    f"stream element at t={time!r} is not a Transaction "
                    f"but {type(txn).__name__}"
                )
            report = checker.step(time, txn)
        except FAULT_ERRORS as exc:
            # abandon any trace spans the failed step left open
            if tracer is not None:
                while tracer.open_spans > depth:
                    tracer.end(error=type(exc).__name__)
            if resilience is None:
                raise
            from repro.resilience import classify_fault

            report = resilience.handle(
                classify_fault(exc), exc, time, txn, checker.steps_processed
            )
        else:
            if self._journal is not None:
                self._journal_record(time, txn)
            self._settle(report)
        return self._conclude(time, report, telemetry)

    def step_state(self, time: Timestamp, state: DatabaseState) -> StepReport:
        """Record a full successor state at ``time`` and check.

        The same path as :meth:`step` minus the journal (which records
        transactions) and the fault boundary: faults always raise.
        """
        if self._journal is not None:
            raise MonitorError(
                "step_state cannot be journaled (the journal records "
                "transactions); derive a transaction and use step()"
            )
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.check_begin(time)
        report = self._settle(self.checker.step_state(time, state))
        return self._conclude(time, report, telemetry)

    def _settle(self, report: StepReport) -> StepReport:
        """Dispatch a committed step's violations; account its shedding."""
        if self._violation_handlers:
            self._dispatch(report)
        if self._budget is None or not report.degraded:
            return report
        if self._resilience is not None:
            self._resilience.note_step(report)
            return report
        metrics = self._metrics()
        if metrics is not None:
            from repro.resilience.policy import (
                DEFERRED_EVALS_TOTAL,
                DEGRADED_STEPS_TOTAL,
            )

            metrics.counter(
                DEGRADED_STEPS_TOTAL,
                help="Steps that shed evaluations",
                engine=self.engine,
            ).inc()
            for name in report.deferred:
                metrics.counter(
                    DEFERRED_EVALS_TOTAL,
                    constraint=name,
                    help="Constraint evaluations shed under deadline",
                    engine=self.engine,
                ).inc()
        return report

    def _conclude(self, time: Timestamp, report: StepReport,
                  telemetry) -> StepReport:
        """Close the step's telemetry, observe state; fire their alerts."""
        if telemetry is not None:
            self._emit_alerts(telemetry.verdict(time, report))
        if self._statewatch is not None:
            self._emit_alerts(self._statewatch.observe(self.checker, report))
        return report

    def _journal_record(self, time: Timestamp, txn: Transaction) -> None:
        from repro.resilience.policy import (
            CHECKPOINTS_TOTAL,
            JOURNAL_RECORDS_TOTAL,
        )

        checkpointed = self._journal.record(time, txn, self.checker)
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter(
                JOURNAL_RECORDS_TOTAL,
                help="Steps appended to the run journal",
                engine=self.engine,
            ).inc()
            if checkpointed:
                metrics.counter(
                    CHECKPOINTS_TOTAL,
                    help="Automatic checkpoints written",
                    engine=self.engine,
                ).inc()

    def run(self, stream: Union[UpdateStream, Sequence]) -> RunReport:
        """Process a whole update stream; return the aggregate report."""
        report = RunReport()
        for time, txn in stream:
            report.add(self.step(time, txn))
        return report

    def _fault_index(self) -> int:
        return self.checker.steps_processed

    @property
    def now(self) -> Optional[Timestamp]:
        """Timestamp of the last processed state (None before any)."""
        return self.checker.now if self._checker is not None else None

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def enable_journal(
        self, directory, checkpoint_every: int = 64, sync=False,
        backend="segment", failpoints=(),
    ):
        """Journal every applied step under ``directory``.

        Writes an initial checkpoint immediately, appends each
        successfully applied ``(time, transaction)`` as a checksummed
        framed record to the store backend, and rewrites the
        checkpoint (atomically, rotating the journal segment) every
        ``checkpoint_every`` steps.  After a crash,
        :meth:`Monitor.recover` restores the newest usable checkpoint
        and replays the journal tail.

        ``sync`` selects the durability level: ``False`` flush-only
        (survives process kills), ``True`` fsync at every record and
        rotation boundary (host-crash durability — the shard workers'
        default; honours the ``REPRO_FSYNC=off`` escape hatch), or
        ``"force"`` to fsync regardless of the environment (chaos and
        durability jobs).  ``backend``/``failpoints`` are passed to
        :class:`~repro.core.persist.RunJournal`: the durable segment
        store (default, spilling unbounded-operator anchors to its
        SQLite tier) or an in-memory store.  Incremental engine only,
        like :meth:`save`.
        """
        from repro.core.persist import RunJournal

        if self.engine != "incremental":
            raise MonitorError(
                f"journaling requires the incremental engine, "
                f"not {self.engine!r}"
            )
        if self._journal is not None:
            raise MonitorError("a journal is already attached")
        journal = RunJournal(
            directory, checkpoint_every=checkpoint_every, sync=sync,
            backend=backend, failpoints=failpoints,
        )
        journal.attach(self.checker)
        self._journal = journal
        return journal

    def checkpoint(self) -> None:
        """Force a checkpoint now (requires :meth:`enable_journal`)."""
        if self._journal is None:
            raise MonitorError(
                "no journal attached to this monitor; call "
                "enable_journal(directory) before checkpoint()"
            )
        try:
            self._journal.checkpoint(self.checker)
        except OSError as exc:
            raise MonitorError(
                f"cannot checkpoint journal directory "
                f"{self._journal.directory}: {exc}"
            ) from exc

    @classmethod
    def recover(cls, directory, resume_journal: bool = True,
                sync=False, checkpoint_every: int = 64):
        """Rebuild a monitor from a store directory: checkpoint + journal.

        ``directory`` is one written by :meth:`save` or by a journaled
        run.  Restores its newest usable checkpoint (falling back to
        the retained previous generation when the current one fails
        its checksums), replays the journal tail on top — truncating
        leniently at the first damaged record, see
        :attr:`~repro.core.persist.RecoveryResult.torn_records` — and
        (by default) re-attaches the journal so monitoring continues
        exactly where the killed process stopped (``sync`` and
        ``checkpoint_every`` configure the re-attached journal).

        Returns:
            ``(monitor, result)`` where ``result`` is the
            :class:`~repro.core.persist.RecoveryResult` describing what
            was restored and replayed.
        """
        from repro.core.persist import RunJournal
        from repro.core.persist import recover as recover_run

        result = recover_run(directory)
        checker = result.checker
        monitor = cls(
            checker.schema, engine="incremental",
            share_subformulas=checker.share_subformulas,
        )
        monitor.constraints = list(checker.constraints)
        monitor._checker = checker
        if resume_journal:
            journal = RunJournal(
                directory, checkpoint_every=checkpoint_every, sync=sync,
            )
            journal.attach(checker)
            monitor._journal = journal
        return monitor, result

    def save(self, directory) -> None:
        """Write one checkpoint generation of the run into ``directory``.

        ``directory`` is a :mod:`repro.store` directory (created if
        missing); :meth:`recover` with ``resume_journal=False`` restores
        it, and ``repro scrub`` verifies it.  Only the incremental
        engine supports checkpointing (its state is the small bounded
        encoding; the naive engines' state is the whole history, which
        defeats the point).
        """
        from repro.core.persist import RunJournal

        if self.engine != "incremental":
            raise MonitorError(
                f"checkpointing requires the incremental engine, "
                f"not {self.engine!r}"
            )
        try:
            journal = RunJournal(directory)
            try:
                journal.attach(self.checker)
            finally:
                journal.close()
        except OSError as exc:
            raise MonitorError(
                f"cannot save a checkpoint to {directory}: {exc}"
            ) from exc

    def __repr__(self) -> str:
        return (
            f"Monitor({len(self.constraints)} constraint(s), "
            f"engine={self.engine!r})"
        )
