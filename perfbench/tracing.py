"""Span recording for the traced benchmark run, from outside the program.

Spans come from two places, both in this directory:

* :class:`BenchInstrumentation`, a subclass of the public
  :class:`repro.obs.instrument.Instrumentation` hook protocol, gives the
  checker's ``core.checker.step`` span and its ``db.apply``,
  ``core.auxiliary.advance`` and ``core.foeval.evaluate`` children;
* :func:`wrap_methods` puts timing wrappers around public methods of
  objects the benchmark built itself (the run journal, telemetry,
  statewatch, shard supervisor, ingest reorderer, monitors).

Every span is ``(id, name, start, end, parent, step)``.  Spans stay in
memory until the benchmark ends.  A span's self time is its duration
minus the part of that interval its children cover; :func:`self_times`
computes it with children clipped to their parent.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.instrument import Instrumentation

#: Span names whose self time is a named layer of the breakdown.  Every
#: other span (the run root, monitor and checker step glue) is residual.
LAYERS = (
    "db.apply",
    "core.auxiliary.advance",
    "core.foeval.evaluate",
    "core.persist.record",
    "core.persist.checkpoint",
    "ingest.push",
    "obs.telemetry",
    "obs.statewatch",
    "shard.submit",
)

RESIDUAL = "core.monitor.residual"


class SpanRecorder:
    """A stack of open spans plus the list of finished ones.

    Spans are numbered in the order they open; finished spans are
    immutable tuples ``(id, name, start, end, parent id, step id)``, so
    a long trace adds nothing for the garbage collector to rescan.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._open: List[tuple] = []
        self._next = 0
        #: step id stamped on spans as they open
        self.step = -1

    def _open_id(self) -> Tuple[int, int]:
        span_id = self._next
        self._next += 1
        return span_id, (self._open[-1][0] if self._open else -1)

    def begin(self, name: str) -> None:
        span_id, parent = self._open_id()
        self._open.append((span_id, name, perf_counter(), parent, self.step))

    def end(self) -> None:
        span_id, name, start, parent, step = self._open.pop()
        self.spans.append((span_id, name, start, perf_counter(), parent,
                           step))

    def closed(self, name: str, seconds: float) -> None:
        """Record a span that ended just now and lasted ``seconds``."""
        now = perf_counter()
        span_id, parent = self._open_id()
        self.spans.append((span_id, name, now - seconds, now, parent,
                           self.step))

    def finished(self) -> List[tuple]:
        """Hand over the finished spans, in opening order (index == id)."""
        spans, self.spans = sorted(self.spans), []
        return spans


class BenchInstrumentation(Instrumentation):
    """Engine hooks turned into spans, plus the counts seen at them.

    Counts: ``checker_steps`` (checker steps), ``rows`` (transaction
    rows applied), ``useful_steps`` (checker steps with a non-empty
    transaction) and ``aux_tuples`` (total stored tuples summed over
    checker steps).
    """

    __slots__ = ("recorder", "checker_steps", "rows", "useful_steps",
                 "aux_tuples")

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.checker_steps = 0
        self.rows = 0
        self.useful_steps = 0
        self.aux_tuples = 0

    def step_begin(self, engine, time, txn_rows) -> None:
        self.recorder.begin("core.checker.step")
        self.checker_steps += 1
        if txn_rows:
            self.rows += txn_rows
            self.useful_steps += 1

    def apply_done(self, engine, time, seconds) -> None:
        self.recorder.closed("db.apply", seconds)

    def aux_advanced(self, engine, node, seconds, tuples) -> None:
        self.recorder.closed("core.auxiliary.advance", seconds)

    def constraint_checked(
        self, engine, constraint, seconds, violations, aux_tuples
    ) -> None:
        self.recorder.closed("core.foeval.evaluate", seconds)

    def step_end(self, engine, time, seconds, violations, aux_tuples) -> None:
        self.recorder.end()
        self.aux_tuples += aux_tuples


def wrap_methods(
    obj,
    recorder: SpanRecorder,
    methods: Dict[str, str],
    on_return: Optional[Callable] = None,
) -> None:
    """Time ``obj``'s methods as spans, by swapping in a subclass.

    ``methods`` maps a method name to its span name.  The subclass adds
    no instance state, so this works on slotted classes too, and calls
    the object makes on itself (a journal record that checkpoints) nest
    as child spans.  ``on_return(method, result)`` runs after a wrapped
    call returns, outside its span.
    """
    cls = type(obj)
    namespace: dict = {"__slots__": ()}
    for method, span in methods.items():
        namespace[method] = _timed(
            getattr(cls, method), method, span, recorder, on_return
        )
    obj.__class__ = type(f"Traced{cls.__name__}", (cls,), namespace)


def _timed(original, method, span, recorder, on_return):
    def timed(self, *args, **kwargs):
        recorder.begin(span)
        try:
            result = original(self, *args, **kwargs)
        finally:
            recorder.end()
        if on_return is not None:
            on_return(method, result)
        return result

    timed.__name__ = original.__name__
    return timed


def self_times(spans: List[tuple]) -> List[float]:
    """Each span's duration minus the part its children cover.

    A child is clipped to its parent's interval and to the end of the
    sibling before it (a hook span's start is derived from a duration
    the engine measured, so it can begin a hair before the hook that
    opened its parent).  After clipping, the self times of a tree add up
    to its root's duration exactly.
    """
    bounds = [(span[2], span[3]) for span in spans]
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[4] >= 0:
            children.setdefault(span[4], []).append(index)
    # a parent always opens before its children, so clipping in
    # index order sees every parent's final interval first
    for index in range(len(spans)):
        start, end = bounds[index]
        cursor = start
        for child in sorted(children.get(index, ()),
                            key=lambda i: bounds[i][0]):
            lo = min(max(bounds[child][0], cursor), end)
            hi = max(min(bounds[child][1], end), lo)
            bounds[child] = (lo, hi)
            cursor = hi
    out = []
    for index, (start, end) in enumerate(bounds):
        covered = sum(
            bounds[c][1] - bounds[c][0] for c in children.get(index, ())
        )
        out.append((end - start) - covered)
    return out


def layer_table(spans: List[tuple], steps: int) -> Dict[str, float]:
    """Self time per named layer, in µs per step, plus the residual.

    The residual is the self time of every span that is not a named
    layer (the run root, monitor and checker glue).  Because every
    microsecond of the root span is the self time of exactly one span,
    the table sums to the root's duration per step; the caller checks
    that against the root independently.
    """
    table = {name: 0.0 for name in LAYERS}
    table[RESIDUAL] = 0.0
    for span, own in zip(spans, self_times(spans)):
        key = span[1] if span[1] in table else RESIDUAL
        table[key] += own
    scale = 1e6 / steps
    return {name: seconds * scale for name, seconds in table.items()}


def span_totals(spans: List[tuple]) -> Dict[str, Tuple[int, float]]:
    """``(count, total self seconds)`` per span name."""
    out: Dict[str, Tuple[int, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        count, total = out.get(span[1], (0, 0.0))
        out[span[1]] = (count + 1, total + own)
    return out
