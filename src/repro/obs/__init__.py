"""``repro.obs`` — zero-dependency tracing for the retiming pipeline.

Hierarchical spans, monotonic counters, and gauges over the whole
stack (engine phases, FEAS passes, Bellman–Ford rounds, binary-search
probes, min-cost-flow augmentations, STA dirty regions, service cache
hits), recorded as one *span record* per run — the event list in
``Tracer.events``.  Every view of a run is derived from that record
by one codec (:mod:`repro.obs.report`):

* structured JSONL run logs (one event per line, streamed by
  :class:`JsonlSink`, closed by an ``end`` record of the run's
  aggregate maps),
* Chrome ``trace_event`` JSON (open in Perfetto / ``chrome://tracing``),
  encoded from the record when the run ends,
* ``Tracer.snapshot()`` and the run-ledger record (the same maps),
* a human-readable text summary tree (``mcretime report``).

Instrumented code uses the module-level helpers::

    from repro import obs

    with obs.span("minperiod.feas", probe=phi):
        ...
    obs.count("bf.rounds", rounds)
    obs.gauge("minperiod.phi", best_phi)

When no tracer is installed (the default) ``span`` returns a shared
no-op singleton and ``count``/``gauge`` return immediately — the
disabled path costs one global load per call site and is gated at <3 %
overhead on the kernel loops by ``benchmarks/bench_obs.py``.

Enable tracing with :func:`session` (what the CLI's ``--trace`` /
``--log-json`` / ``-v`` / ``--profile`` / ``--ledger`` flags and their
environment variables use) or :func:`start`/:func:`stop` directly.
Worker processes use :func:`job_trace`, keyed by the job's canonical
key so a trace id survives the process boundary.

Environment variables
---------------------
``REPRO_TRACE``          (CLI) write a Chrome trace_event JSON to this path.
``REPRO_TRACE_LOG``      (CLI) write a JSONL run log to this path.
``REPRO_TRACE_SUMMARY``  (CLI) print the text summary tree to stderr.
``REPRO_PROFILE``        (CLI) run the sampling profiler; write flame data
                         here.
``REPRO_LEDGER``         (CLI) append one run-ledger record to this JSONL
                         file.
``REPRO_TRACE_DIR``      (workers) write one JSONL per job under this dir.
``REPRO_TRACE_SPANS``    (workers) trace in-memory only, so span totals
                         and counters ride back in ``metrics["obs"]``.

See ``docs/OBSERVABILITY.md`` for the span/counter taxonomy, the
run-ledger schema, and the ``mcretime obs`` sentinel commands.
"""

from __future__ import annotations

import contextlib
import os
import sys
from pathlib import Path
from typing import Any

from .ledger import (
    RunLedger,
    build_record,
    design_fingerprint,
    environment,
    record_errors,
    record_from_snapshot,
    validate_record,
)
from .bus import BusSink, TelemetryBus, job_sink, set_worker_queue
from .explain import (
    build_explanation,
    infeasible_payload,
    render_explanation,
    summary_metrics as explain_summary,
    validate_explanation,
)
from .profile import Profile, SamplingProfiler, profile_block
from .report import (
    aggregate,
    chrome_trace_errors,
    cpu_split,
    jsonl_errors,
    load_events,
    render_summary,
    trace_errors,
    validate_chrome_trace,
    validate_jsonl,
)
from .sinks import JsonlSink
from .slo import (
    SLOConfig,
    SLOEngine,
    check_records,
    evaluate,
    percentile,
    reevaluate,
    render_status,
)
from .stitch import (
    critical_path,
    render_critical_path,
    request_timelines,
    stitch_dir,
    stitch_events,
    write_chrome,
    write_jsonl,
)
from .tracer import (
    NULL_SPAN,
    Span,
    StageClock,
    Stopwatch,
    Tracer,
    annotate,
    count,
    current,
    enabled,
    end_event,
    finalize_total,
    gauge,
    span,
    span_event,
    start,
    stop,
    timed,
)

__all__ = [
    "NULL_SPAN",
    "BusSink",
    "JsonlSink",
    "Profile",
    "RunLedger",
    "SLOConfig",
    "SLOEngine",
    "SamplingProfiler",
    "Span",
    "StageClock",
    "Stopwatch",
    "TelemetryBus",
    "Tracer",
    "aggregate",
    "annotate",
    "build_explanation",
    "build_record",
    "check_records",
    "chrome_trace_errors",
    "count",
    "cpu_split",
    "critical_path",
    "current",
    "design_fingerprint",
    "enabled",
    "end_event",
    "environment",
    "evaluate",
    "explain_summary",
    "finalize_total",
    "gauge",
    "infeasible_payload",
    "job_sink",
    "job_trace",
    "jsonl_errors",
    "load_events",
    "percentile",
    "profile_block",
    "record_errors",
    "record_from_snapshot",
    "reevaluate",
    "render_critical_path",
    "render_explanation",
    "render_status",
    "render_summary",
    "request_timelines",
    "session",
    "set_worker_queue",
    "span",
    "span_event",
    "start",
    "stitch_dir",
    "stitch_events",
    "stop",
    "timed",
    "trace_errors",
    "validate_chrome_trace",
    "validate_explanation",
    "validate_jsonl",
    "validate_record",
    "write_chrome",
    "write_jsonl",
]


@contextlib.contextmanager
def session(
    trace: str | Path | None = None,
    jsonl: str | Path | None = None,
    summary: bool = False,
    trace_id: str | None = None,
    meta: dict[str, Any] | None = None,
    profile: str | Path | None = None,
    profile_interval: float = 0.005,
    ledger: str | Path | None = None,
    ledger_kind: str = "run",
    fingerprint: str | None = None,
):
    """Trace a block of work, wiring up the requested outputs.

    Yields the installed :class:`Tracer` (or None when an outer tracer
    is already active — nested sessions join the enclosing trace rather
    than shadowing it).  ``jsonl=`` streams the record to a JSONL log
    as it happens.  On exit the tracer is finalised, ``trace=`` writes
    the Chrome trace of its record, and the summary tree is printed to
    stderr if requested.

    ``profile=`` additionally runs the sampling profiler over the block
    and writes the flame data to the given path on exit (speedscope
    JSON, or collapsed stacks for ``.txt``/``.collapsed``).  ``ledger=``
    appends one schema-validated run record to the given JSONL ledger
    (fingerprint/config/the record's aggregate maps/result metrics —
    see :mod:`repro.obs.ledger`); attach result metrics from inside the
    block with :func:`annotate`.  The record's ``status`` is ``failed``
    when the block raised and ``done`` otherwise.
    """
    if current() is not None:
        yield None
        return
    sinks = (JsonlSink(jsonl),) if jsonl else ()
    tracer = start(trace_id=trace_id, sinks=sinks, meta=meta)
    profiler = (
        SamplingProfiler(interval=profile_interval).start() if profile else None
    )
    status = "failed"
    try:
        yield tracer
        status = "done"
    finally:
        if profiler is not None:
            profiler.stop().write(profile)
        stop()
        if trace:
            write_chrome({tracer.trace_id: tracer.events}, trace)
        if ledger:
            RunLedger(ledger).append(
                record_from_snapshot(
                    tracer.snapshot(),
                    ledger_kind,
                    fingerprint=fingerprint,
                    config=dict(tracer.meta),
                    metrics=dict(tracer.results),
                    status=status,
                )
            )
        if summary:
            print(tracer.summary(), file=sys.stderr)


@contextlib.contextmanager
def job_trace(
    job_id: str,
    environ: dict[str, str] | None = None,
    parent: dict[str, Any] | None = None,
):
    """Per-job tracing inside service worker processes.

    The pool propagates ``REPRO_TRACE_DIR`` / ``REPRO_TRACE_SPANS``
    into workers; this starts a fresh tracer whose trace id **is** the
    job's canonical key, so the trace written in the worker and the
    metrics observed in the service process correlate.  Yields None
    (without touching the active tracer) when an outer tracer is
    already running or neither variable is set.

    *parent* is the propagated trace context minted by the front-end
    (``{"trace_id", "parent_span", "parent_pid"}``): its span/pid stamp
    is recorded in the worker's meta event so ``repro.obs.stitch`` can
    re-parent this process's root spans under the request span that
    dispatched the job.  When a telemetry-bus queue is installed
    (:func:`set_worker_queue`), a :class:`BusSink` streams span deltas
    to the supervisor alongside the JSONL file.
    """
    if current() is not None:
        yield None
        return
    env = os.environ if environ is None else environ
    trace_dir = env.get("REPRO_TRACE_DIR") or None
    spans_only = bool(env.get("REPRO_TRACE_SPANS"))
    if not (trace_dir or spans_only):
        yield None
        return
    sinks: list[Any] = []
    if trace_dir:
        sinks.append(JsonlSink(Path(trace_dir) / f"{job_id[:16]}.jsonl"))
    bus = job_sink(job_id)
    if bus is not None:
        sinks.append(bus)
    meta: dict[str, Any] = {"job": job_id[:16], "role": "worker"}
    if parent:
        meta["parent_span"] = parent.get("parent_span")
        meta["parent_pid"] = parent.get("parent_pid")
    tracer = start(trace_id=job_id, sinks=tuple(sinks), meta=meta)
    try:
        yield tracer
    finally:
        stop()
