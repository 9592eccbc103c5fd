"""The tracing core: hierarchical spans, counters, gauges.

One :class:`Tracer` records one run.  Instrumented code never talks to
a tracer directly — it calls the module-level helpers in
:mod:`repro.obs` (``span`` / ``timed`` / ``count`` / ``gauge``), which
dispatch to the installed tracer or, when tracing is disabled, to
shared no-op singletons.  The disabled path is therefore a single
global load plus an identity check per call site, cheap enough to leave
in the retiming hot loops permanently (``benchmarks/bench_obs.py``
gates the overhead at <3 % on the kernel loops).

Span model
----------
Spans are hierarchical per thread: ``span("minperiod.feas", probe=x)``
nests under whatever span is open on the calling thread.  A span's
recorded event carries its wall-clock offset and duration **in
seconds** (raw ``time.perf_counter`` differences, so downstream
consumers can reproduce the engine's ``timings`` dicts bit-exactly),
its depth, its parent's span id, and any keyword arguments.  Counters
incremented while a span is open are additionally attributed to that
span, so the summary tree can show per-phase iteration counts.

``Tracer.events`` is the run's *span record*; every aggregate of the
run (``Tracer.snapshot()``, the ``end`` record, the Chrome trace, the
run ledger) is derived from it by :func:`repro.obs.report.aggregate`.
:func:`span_event` and :func:`end_event` build its span and end
records, for the tracer and for anything that writes a record by hand
(the service front-end's request trace, the stitcher).

``timed`` is the variant the engine and flow layers use for their
``timings`` dicts: it measures wall-clock even when tracing is
disabled (returning a plain stopwatch), so ``MCRetimeResult.timings``
and ``FlowResult.timings`` are *derived from spans* whether or not a
sink is attached.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from typing import Any, Callable

from .report import aggregate

__all__ = [
    "NULL_SPAN",
    "Span",
    "StageClock",
    "Stopwatch",
    "Tracer",
    "annotate",
    "count",
    "current",
    "enabled",
    "end_event",
    "finalize_total",
    "gauge",
    "span",
    "span_event",
    "start",
    "stop",
    "timed",
]

#: the installed tracer, or None when tracing is disabled
_ACTIVE: "Tracer | None" = None

_perf_counter = time.perf_counter


class _NullSpan:
    """Shared do-nothing span returned by ``span()`` when disabled."""

    __slots__ = ()
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **args: Any) -> "_NullSpan":
        return self


#: the no-op singleton — identity-testable (``span() is NULL_SPAN``)
NULL_SPAN = _NullSpan()


class Stopwatch:
    """Measures wall-clock like a span but records nothing.

    ``timed()`` returns one of these when tracing is disabled so the
    engine's ``timings`` bookkeeping works identically either way.
    """

    __slots__ = ("duration", "_t0")

    def __init__(self) -> None:
        self.duration = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = _perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.duration = _perf_counter() - self._t0
        return False

    def set(self, **args: Any) -> "Stopwatch":
        return self


def span_event(
    name: str,
    span_id: int,
    parent: int,
    depth: int,
    ts: float,
    dur: float,
    pid: int,
    tid: int,
    args: dict[str, Any] | None = None,
    counters: dict[str, float] | None = None,
    error: bool = False,
) -> dict[str, Any]:
    """One closed span as a span-record event (``ts``/``dur`` in s)."""
    event: dict[str, Any] = {
        "type": "span",
        "name": name,
        "id": span_id,
        "parent": parent,
        "depth": depth,
        "ts": ts,
        "dur": dur,
        "pid": pid,
        "tid": tid,
    }
    if args:
        event["args"] = args
    if counters:
        event["counters"] = counters
    if error:
        event["error"] = True
    return event


def end_event(
    events: list[dict[str, Any]],
    trace_id: str,
    ts: float,
    pid: int | None = None,
) -> dict[str, Any]:
    """The ``end`` record closing *events*: their :func:`aggregate` maps.

    A process's end record names its *pid*; one that summarises several
    processes (a stitched timeline) names none.
    """
    end = {"type": "end", "trace_id": trace_id, "ts": ts, **aggregate(events)}
    if pid is not None:
        end["pid"] = pid
    return end


class Span:
    """One live span; becomes an event dict when it closes."""

    __slots__ = (
        "tracer",
        "name",
        "args",
        "span_id",
        "parent_id",
        "depth",
        "tid",
        "duration",
        "counters",
        "_t0",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        args: dict[str, Any],
        span_id: int,
        parent_id: int,
        depth: int,
        tid: int,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.tid = tid
        self.duration = 0.0
        #: counters incremented while this span was innermost
        self.counters: dict[str, float] = {}

    def set(self, **args: Any) -> "Span":
        """Attach extra arguments to the span (chainable)."""
        self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        self._t0 = _perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        t1 = _perf_counter()
        self.duration = t1 - self._t0
        self.tracer._close_span(self, self._t0, exc[0] is not None)
        return False


class Tracer:
    """Collects span/counter/gauge events for one traced run."""

    def __init__(
        self,
        trace_id: str | None = None,
        sinks: tuple = (),
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex
        self.sinks = list(sinks)
        self.pid = os.getpid()
        #: perf_counter anchor; event timestamps are offsets from this
        self.t0 = _perf_counter()
        #: wall-clock anchor (for cross-process alignment in reports)
        self.wall0 = time.time()
        #: the span record: every event of the run, in recording order
        self.events: list[dict[str, Any]] = []
        #: live counter totals (the record's counter events carry them)
        self.counters: dict[str, float] = {}
        #: result annotations (period, register count, …) attached via
        #: :func:`annotate`; the run-ledger record carries them as
        #: ``metrics``
        self.results: dict[str, Any] = {}
        self.meta = dict(meta or {})
        self._lock = threading.Lock()
        self._tls = threading.local()
        #: tid -> that thread's live span stack (the same list object the
        #: thread itself mutates).  Read lock-free by the sampling
        #: profiler to attribute a sample to the innermost open span;
        #: a torn read costs one mis-bucketed sample, never a crash.
        self._thread_stacks: dict[int, list[Span]] = {}
        self._next_id = 0
        self._closed = False
        head = {
            "type": "meta",
            "trace_id": self.trace_id,
            "pid": self.pid,
            "wall_time": self.wall0,
            **self.meta,
        }
        self.events.append(head)
        self._emit(head)

    # -- span plumbing --------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            self._thread_stacks[threading.get_ident()] = stack
        return stack

    def active_span_name(self, tid: int) -> str | None:
        """Innermost open span name on thread *tid* (profiler hook)."""
        stack = self._thread_stacks.get(tid)
        if stack:
            try:
                return stack[-1].name
            except IndexError:  # raced with the pop — sample as unattributed
                return None
        return None

    def span(self, name: str, **args: Any) -> Span:
        """Open a hierarchical span (use as a context manager)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id = self._next_id + 1
        sp = Span(
            self,
            name,
            args,
            span_id,
            parent.span_id if parent is not None else 0,
            len(stack),
            threading.get_ident(),
        )
        stack.append(sp)
        return sp

    def _close_span(self, sp: Span, t0: float, errored: bool) -> None:
        stack = self._stack()
        # exception safety: pop through any abandoned inner spans too
        while stack and stack[-1] is not sp:
            stack.pop()
        if stack:
            stack.pop()
        event = span_event(
            sp.name,
            sp.span_id,
            sp.parent_id,
            sp.depth,
            t0 - self.t0,
            sp.duration,
            self.pid,
            sp.tid,
            sp.args,
            sp.counters,
            errored,
        )
        with self._lock:
            self.events.append(event)
        self._emit(event)

    # -- counters and gauges --------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Increment a monotonic counter (attributed to the open span)."""
        stack = getattr(self._tls, "stack", None)
        if stack:
            sp = stack[-1]
            sp.counters[name] = sp.counters.get(name, 0) + value
        with self._lock:
            total = self.counters[name] = self.counters.get(name, 0) + value
            event = {
                "type": "counter",
                "name": name,
                "value": total,
                "ts": _perf_counter() - self.t0,
                "pid": self.pid,
            }
            self.events.append(event)
        self._emit(event)

    def annotate(self, **results: Any) -> None:
        """Attach result metrics to the run (ledger ``metrics`` block)."""
        with self._lock:
            self.results.update(results)

    def gauge(self, name: str, value: float) -> None:
        """Record an instantaneous measurement (dirty-region size, φ…)."""
        event = {
            "type": "gauge",
            "name": name,
            "value": value,
            "ts": _perf_counter() - self.t0,
            "pid": self.pid,
        }
        with self._lock:
            self.events.append(event)
        self._emit(event)

    # -- lifecycle ------------------------------------------------------

    def _emit(self, event: dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.event(event)

    def close(self) -> None:
        """Finalise: emit the end event and close every sink."""
        if self._closed:
            return
        self._closed = True
        end = end_event(
            self.events, self.trace_id, _perf_counter() - self.t0, self.pid
        )
        with self._lock:
            self.events.append(end)
        self._emit(end)
        for sink in self.sinks:
            sink.close(self)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe aggregate used to ship results across processes."""
        return {"trace_id": self.trace_id, **aggregate(self.events)}

    def summary(self) -> str:
        """The human-readable text summary tree for this trace."""
        from .report import render_summary

        return render_summary(self.events)


# ---------------------------------------------------------------------------
# module-level dispatch (the instrumentation API)
# ---------------------------------------------------------------------------


def enabled() -> bool:
    """Whether a tracer is installed (cheap; safe to call in loops)."""
    return _ACTIVE is not None


def current() -> Tracer | None:
    """The installed tracer, if any."""
    return _ACTIVE


def start(
    trace_id: str | None = None,
    sinks: tuple = (),
    meta: dict[str, Any] | None = None,
) -> Tracer:
    """Install a new tracer as the process-wide active tracer."""
    global _ACTIVE
    tracer = Tracer(trace_id=trace_id, sinks=sinks, meta=meta)
    _ACTIVE = tracer
    return tracer


def stop() -> Tracer | None:
    """Uninstall and finalise the active tracer; returns it."""
    global _ACTIVE
    tracer = _ACTIVE
    _ACTIVE = None
    if tracer is not None:
        tracer.close()
    return tracer


def span(name: str, **args: Any):
    """Open a span under the active tracer, or the no-op singleton."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **args)


def timed(name: str, **args: Any):
    """A span that measures wall-clock even when tracing is disabled.

    Use where the duration feeds a ``timings`` dict; the measurement is
    identical with and without an installed tracer.
    """
    tracer = _ACTIVE
    if tracer is None:
        return Stopwatch()
    return tracer.span(name, **args)


def count(name: str, value: float = 1) -> None:
    """Increment a counter on the active tracer (no-op when disabled)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.count(name, value)


def gauge(name: str, value: float) -> None:
    """Record a gauge sample on the active tracer (no-op when disabled)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.gauge(name, value)


def annotate(**results: Any) -> None:
    """Attach result metrics to the active run (no-op when disabled)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.annotate(**results)


# ---------------------------------------------------------------------------
# timings-dict helpers (shared by flows and the engine)
# ---------------------------------------------------------------------------


def finalize_total(timings: dict[str, float]) -> dict[str, float]:
    """Set ``timings["total"]`` to the sum of the stage entries."""
    timings["total"] = sum(v for k, v in timings.items() if k != "total")
    return timings


class StageClock:
    """Collects named stage durations from timed spans.

    The flow layer's replacement for hand-rolled ``perf_counter``
    bookkeeping: each :meth:`stage` opens a (always-measuring) span and
    accumulates its duration under the stage key; :meth:`done` seals
    ``timings["total"] = sum(stages)`` — semantics identical to the old
    ``_total()`` helper.
    """

    def __init__(self, seed: dict[str, float] | None = None) -> None:
        self.timings: dict[str, float] = {
            k: v for k, v in (seed or {}).items() if k != "total"
        }

    def stage(self, key: str, span_name: str | None = None, **args: Any):
        """Context manager timing one stage (accumulates on re-entry)."""
        return _Stage(self, key, span_name or key, args)

    def done(self) -> dict[str, float]:
        return finalize_total(self.timings)


class _Stage:
    __slots__ = ("clock", "key", "span_name", "args", "_sp")

    def __init__(
        self, clock: StageClock, key: str, span_name: str, args: dict
    ) -> None:
        self.clock = clock
        self.key = key
        self.span_name = span_name
        self.args = args

    def __enter__(self):
        self._sp = timed(self.span_name, **self.args)
        return self._sp.__enter__()

    def __exit__(self, *exc: object) -> bool:
        self._sp.__exit__(*exc)
        timings = self.clock.timings
        timings[self.key] = timings.get(self.key, 0.0) + self._sp.duration
        return False
