"""The batch retiming service: pool + cache + metrics, one façade.

:class:`RetimeService` is what every entry point talks to — the HTTP
server (:mod:`repro.service.server`), ``mcretime batch``, and the
parallel experiment runner all submit :class:`~repro.service.jobs.RetimeJob`
values here.  Responsibilities:

* content-addressed **deduplication**: identical submissions share one
  execution (and one cache entry);
* the **two-tier cache** consult on submit — hits complete instantly
  and never touch the worker pool.  The cache's memory tier is the one
  store of finished jobs: it holds at most ``cache_memory`` of them
  and answers resubmission, status, waits and explanations, so an id
  it has evicted is unknown (all-time totals stay in the
  ``repro_jobs_*_total`` counters);
* **metrics**: every lifecycle event increments the Prometheus
  registry, including per-stage latency histograms fed from
  ``FlowResult.timings`` and per-span histograms fed from the workers'
  :mod:`repro.obs` trace snapshots (``metrics["obs"]``).

Tracing: pass ``trace_dir`` to have every worker write a per-job JSONL
trace there (the trace id is the job's canonical key); span totals are
additionally bridged into ``repro_span_seconds{span=...}`` whenever
workers trace (``trace_dir`` set, or ``REPRO_TRACE_SPANS`` inherited),
each observation carrying a ``{run="<job id>"}`` exemplar so a slow
bucket points back at a concrete job.  Pass ``ledger=`` to append one
``service.job`` run-ledger record per executed job
(:mod:`repro.obs.ledger`), served back by ``GET /runs``.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from pathlib import Path

from .. import __version__, obs
from ..lru import LRU
from .cache import ResultCache
from .client import ServiceOverloadedError
from .jobs import JobRecord, JobResult, RetimeJob, design_fingerprint
from .metrics import MetricsRegistry
from .pool import PoolSaturatedError, RetimePool

#: fixed span ids of the front-end's synthetic request span tree (the
#: ``.req.jsonl`` trace written at terminal state).  The dispatch span
#: id is what the minted trace context points workers at.
_REQ_ROOT_ID = 1
_REQ_ADMIT_ID = 2
_REQ_QUEUE_ID = 3
_REQ_DISPATCH_ID = 4

#: recent designs whose canonical text ``POST /retime`` ECO bodies can
#: name by ``base_key``
_DESIGN_MEMORY = 128


class RetimeService:
    """Submit/await retiming jobs against a pool with a result cache.

    Every dispatch ships the job dict, netlist text included.  The
    consistent-hash ring routes every job for one design (by its
    design fingerprint; ECO edits by their ``base_key``) to the worker
    already holding its parsed circuit and warm ECO state, and
    ``max_pending`` bounds the admission queue (overflow raises
    :class:`~repro.service.client.ServiceOverloadedError`, surfaced
    over HTTP as 429 + ``Retry-After``).
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_dir: str | Path | None = None,
        cache_memory: int = 128,
        job_timeout: float = 300.0,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        max_pending: int | None = None,
        metrics: MetricsRegistry | None = None,
        trace_dir: str | Path | None = None,
        ledger: str | Path | None = None,
        telemetry: bool = True,
        slo: "obs.SLOConfig | dict | str | Path | None" = None,
        start_method: str | None = None,
    ) -> None:
        self.metrics = metrics or MetricsRegistry()
        m = self.metrics
        self._submitted = m.counter(
            "repro_jobs_submitted_total", "Jobs submitted to the service"
        )
        self._completed = m.counter(
            "repro_jobs_completed_total", "Jobs that finished successfully"
        )
        self._failed = m.counter(
            "repro_jobs_failed_total", "Jobs that exhausted retries or errored"
        )
        self._retried = m.counter(
            "repro_jobs_retried_total", "Job re-executions after crash/timeout"
        )
        self._timeouts = m.counter(
            "repro_jobs_timeout_total", "Executions killed by the job timeout"
        )
        self._crashes = m.counter(
            "repro_worker_crashes_total", "Worker processes that died mid-job"
        )
        self._cache_hits = m.counter(
            "repro_cache_hits_total", "Submissions served from the result cache"
        )
        self._cache_misses = m.counter(
            "repro_cache_misses_total", "Submissions that required execution"
        )
        self._cache_corrupt = m.counter(
            "repro_cache_corrupt_total",
            "Corrupt disk cache entries quarantined on first read",
        )
        self._corrupt_synced = 0
        self._deduped = m.counter(
            "repro_jobs_deduped_total", "Submissions coalesced onto an in-flight job"
        )
        self._eco_jobs = m.counter(
            "repro_eco_jobs_total",
            "Incremental (ECO) submissions, labelled by the worker's plan",
        )
        self._shed = m.counter(
            "repro_jobs_shed_total",
            "Submissions refused by admission backpressure (HTTP 429)",
        )
        self._dispatched = m.counter(
            "repro_shard_dispatched_total",
            "Jobs dispatched to workers, labelled by shard slot",
        )
        self._stolen = m.counter(
            "repro_jobs_stolen_total",
            "Dispatches that broke shard affinity via work stealing",
        )
        self._queue_wait = m.histogram(
            "repro_queue_wait_seconds",
            "Seconds a job waited in the admission queue before dispatch",
        )
        self._latency = m.histogram(
            "repro_job_latency_seconds", "End-to-end job execution latency"
        )
        self._stage_seconds = m.histogram(
            "repro_stage_seconds", "Per-flow-stage wall-clock seconds"
        )
        self._span_seconds = m.histogram(
            "repro_span_seconds",
            "Per-trace-span wall-clock seconds (from worker trace snapshots)",
        )
        self._verify_checks = m.counter(
            "repro_verify_checks_total",
            "Post-flow sequential verification checks run",
        )
        self._verify_failures = m.counter(
            "repro_verify_failures_total",
            "Jobs failed by the sequential verification gate",
        )
        self._verify_seconds = m.histogram(
            "repro_verify_seconds",
            "Wall-clock seconds spent in post-flow verification",
        )
        self._explain_jobs = m.counter(
            "repro_explain_jobs_total",
            "Jobs that attached a certificate-backed explanation",
        )
        self._explain_certs = m.counter(
            "repro_explain_certificates_total",
            "Certificates re-validated across explained jobs, by verdict",
        )
        self._explain_invalid = m.counter(
            "repro_explain_invalid_total",
            "Explained jobs whose certificate re-validation failed",
        )
        self._explain_seconds = m.histogram(
            "repro_explain_seconds",
            "Wall-clock seconds spent extracting explanations",
        )
        env = obs.environment()
        self._build_info = m.gauge(
            "repro_build_info", "Build and runtime identity (value is always 1)"
        )
        self._build_info.set(
            1,
            version=__version__,
            python=str(env["python"]),
            git_sha=str(env["git_sha"]),
        )
        self._started_at = time.time()
        self._uptime = m.gauge(
            "repro_process_uptime_seconds",
            "Seconds since the service process started",
        )
        self._uptime.set_function(lambda: time.time() - self._started_at)

        self.ledger = obs.RunLedger(ledger) if ledger else None

        worker_env: dict[str, str] = {}
        if trace_dir is not None:
            worker_env["REPRO_TRACE_DIR"] = str(trace_dir)
        if trace_dir is not None or self.ledger is not None:
            # memory tracing rides along so span totals reach the
            # metrics bridge and the run ledger
            worker_env["REPRO_TRACE_SPANS"] = "1"
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)

        #: the live telemetry bus only exists on traced services — the
        #: workers' BusSinks ride the per-job tracer, which tracing
        #: configuration activates
        self.bus: obs.TelemetryBus | None = (
            obs.TelemetryBus(metrics=m)
            if telemetry and self.trace_dir is not None
            else None
        )

        if isinstance(slo, obs.SLOConfig):
            slo_config = slo
        elif isinstance(slo, dict):
            slo_config = obs.SLOConfig.from_dict(slo)
        elif slo is not None:
            slo_config = obs.SLOConfig.load(slo)
        else:
            slo_config = obs.SLOConfig()
        self.slo = obs.SLOEngine(config=slo_config)

        self.cache = ResultCache(cache_dir, memory_size=cache_memory)

        self.pool = RetimePool(
            workers=workers,
            job_timeout=job_timeout,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            max_pending=max_pending,
            on_event=self._on_pool_event,
            worker_env=worker_env,
            start_method=start_method,
            telemetry_bus=self.bus,
        ).start()
        self._pool_started_at = time.monotonic()

        m.gauge(
            "repro_pool_queue_depth",
            "Jobs admitted but not yet dispatched to a worker",
        ).set_function(self.pool.queue_depth)
        m.gauge(
            "repro_pool_max_pending",
            "Admission queue bound (0 = unbounded)",
        ).set(float(max_pending or 0))
        shard_depth = m.gauge(
            "repro_shard_queue_depth", "Queued jobs per shard slot"
        )
        shard_util = m.gauge(
            "repro_shard_utilization",
            "Fraction of wall-clock each shard's worker spent executing",
        )
        for slot in range(self.pool.workers):
            shard_depth.set_function(
                lambda s=slot: self.pool.stats()["shards"][s]["depth"],
                shard=str(slot),
            )
            shard_util.set_function(
                lambda s=slot: self._shard_utilization(s), shard=str(slot)
            )

        self._lock = threading.Lock()
        #: job id -> record of every job admitted to the pool and not
        #: yet finished (finished ones live in ``self.cache.memory``)
        self._inflight: dict[str, JobRecord] = {}
        #: design fingerprint -> canonical BLIF of recent submissions;
        #: what ``POST /retime`` ECO bodies resolve ``base_key`` against
        self._designs: LRU[str, str] = LRU(_DESIGN_MEMORY)

    # -- submission ----------------------------------------------------

    def submit(self, job: RetimeJob) -> str:
        """Submit *job*; returns its content-addressed job id.

        Parse errors from canonicalisation propagate to the caller —
        invalid netlists are rejected before they reach a worker.
        Raises :class:`~repro.service.client.ServiceOverloadedError`
        when the pool's admission queue is full (backpressure).
        """
        return self.admit(job).job_id

    def admit(self, job: RetimeJob) -> JobRecord:
        """:meth:`submit` returning the job's record, which stays
        awaitable after the service has evicted it."""
        job_id = job.canonical_key
        self._submitted.inc()
        design_key = self._remember_design(job)
        if job.base_key is not None:
            self._eco_jobs.inc(plan="submitted")
            obs.count("service.eco.submitted")
        t0 = time.perf_counter()
        submitted_at = time.time()
        with obs.span("service.admit", job=job_id[:16]):
            with self._lock:
                record = self._inflight.get(job_id)
            if record is not None:
                # still queued/running: coalesce onto the in-flight job
                self._deduped.inc()
                obs.count("service.cache.dedup")
                return record
            cached = self.cache.get(job_id)
            self._sync_cache_corrupt()
            if cached is not None:
                self._cache_hits.inc()
                obs.count("service.cache.hit")
                # the record answers for this latest submission
                record = JobRecord(
                    job_id,
                    design_key,
                    submitted_at,
                    result=dataclasses.replace(
                        cached, cached=True, job_id=job_id
                    ),
                )
                self.cache.put(record)
                # cache hits flow into the latency histogram too —
                # otherwise a warm service reports p95 = 0.0 from an
                # empty reservoir
                self._latency.observe(time.perf_counter() - t0)
                self.slo.observe(time.perf_counter() - t0)
                return record
            self._cache_misses.inc()
            obs.count("service.cache.miss")

            # design affinity: every job on one design goes to the
            # worker holding its parsed circuit; an ECO edit goes to the
            # worker holding the *base* design's warm EcoState
            shard_key = design_key if job.base_key is None else job.base_key
            # distributed trace context: the request span tree lives in
            # this process (written at terminal state); the worker nests
            # its root spans under the dispatch span via this stamp
            trace_ctx = (
                {
                    "trace_id": job_id,
                    "parent_span": _REQ_DISPATCH_ID,
                    "parent_pid": os.getpid(),
                }
                if self.trace_dir is not None
                else None
            )
            record = JobRecord(
                job_id, design_key, submitted_at, options=job.options()
            )
            with self._lock:
                # one step under the lock: nothing can coalesce onto a
                # record that the pool then sheds
                raced = self._inflight.setdefault(job_id, record)
                if raced is not record:
                    return raced
                try:
                    with obs.span("service.shard", job=job_id[:16]):
                        self.pool.submit(
                            job_id,
                            job,
                            shard_key=shard_key,
                            trace_ctx=trace_ctx,
                        )
                except PoolSaturatedError as exc:
                    del self._inflight[job_id]
                    self._shed.inc(exemplar={"run": job_id[:16]})
                    obs.count("service.shed")
                    self.slo.observe_shed()
                    raise ServiceOverloadedError(
                        429, str(exc), retry_after=self._retry_after()
                    ) from None
            record.trace["admit_s"] = time.perf_counter() - t0
        return record

    def _remember_design(self, job: RetimeJob) -> str:
        """Record the job's canonical netlist under its design
        fingerprint and return the fingerprint — the ``base_key``
        future ECO submissions address this design by."""
        canonical = job.canonical_netlist
        key = design_fingerprint(canonical)
        self._designs.put(key, canonical)
        return key

    def base_netlist(self, key: str) -> str | None:
        """Canonical BLIF of a recently seen design, by fingerprint
        (the ``POST /retime`` ECO path resolves ``base_key`` here)."""
        return self._designs.get(key)

    def _retry_after(self) -> float:
        """Backpressure hint: expected seconds to drain one queue slot."""
        count = self._latency.count()
        avg = self._latency.sum() / count if count else 1.0
        depth = self.pool.queue_depth()
        estimate = avg * (depth + 1) / max(1, self.pool.workers)
        return min(60.0, max(1.0, estimate))

    def _shard_utilization(self, slot: int) -> float:
        elapsed = time.monotonic() - self._pool_started_at
        if elapsed <= 0:
            return 0.0
        busy = self.pool.stats()["shards"][slot]["busy_seconds"]
        return min(1.0, busy / elapsed)

    def wait(self, job_id: str, timeout: float | None = None) -> JobResult:
        """Block until *job_id* completes (cache hits return at once)."""
        record = self._record(job_id)
        if record is None:
            raise KeyError(f"unknown job {job_id}")
        return record.wait(timeout)

    def batch(
        self, jobs: list[RetimeJob], timeout: float | None = None
    ) -> list[JobResult]:
        """Fan *jobs* across the pool; results in submission order."""
        records = [self.admit(job) for job in jobs]
        return [record.wait(timeout) for record in records]

    # -- introspection -------------------------------------------------

    def _record(self, job_id: str) -> JobRecord | None:
        with self._lock:
            record = self._inflight.get(job_id)
        # a finishing job enters the cache before it leaves _inflight
        return record if record is not None else self.cache.memory.get(job_id)

    def status(self, job_id: str) -> dict | None:
        """JSON-friendly status record for ``GET /jobs/<id>``."""
        record = self._record(job_id)
        return record.to_dict() if record is not None else None

    def job_counts(self) -> dict[str, int]:
        """Retained jobs by state: in flight, or among the cache's
        finished jobs."""
        counts = {"queued": 0, "running": 0, "retrying": 0, "done": 0, "failed": 0}
        with self._lock:
            records = list(self._inflight.values())
        for record in records + self.cache.memory.values():
            counts[record.state] += 1
        return counts

    def cache_hit_rate(self) -> float:
        hits = self._cache_hits.total()
        misses = self._cache_misses.total()
        return hits / max(hits + misses, 1)

    def _sync_cache_corrupt(self) -> None:
        """Mirror the cache's quarantine tally into the counter."""
        seen = self.cache.corrupt
        delta = seen - self._corrupt_synced
        if delta > 0:
            self._corrupt_synced = seen
            self._cache_corrupt.inc(delta)

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "RetimeService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- pool event plumbing -------------------------------------------

    def _on_pool_event(self, kind: str, job_id: str, **info) -> None:
        with self._lock:
            record = self._inflight.get(job_id)
        if kind == "dispatch":
            queued = info.get("queued_seconds", 0.0)
            self._queue_wait.observe(queued, exemplar={"run": job_id[:16]})
            self._span_seconds.observe(
                queued, exemplar={"run": job_id[:16]}, span="pool.dispatch"
            )
            self._dispatched.inc(shard=str(info.get("worker", "?")))
            if info.get("stolen"):
                self._stolen.inc()
            if record is not None:
                record.state = "running"
                # retries overwrite: the request timeline shows the
                # dispatch that actually produced the result
                record.trace.update(
                    dispatch_wall=info["dispatch_wall"],
                    queued_s=queued,
                    shard=info.get("shard"),
                    worker=info.get("worker"),
                    stolen=bool(info.get("stolen")),
                )
        elif kind in ("done", "failed"):
            record = record or JobRecord(job_id)
            try:
                self._finish(record, info["result"])
            finally:
                # waiters wake only now: a client that saw the job finish
                # must find its side effects (cache, ledger, metrics,
                # trace) already durable
                with self._lock:
                    self._inflight.pop(job_id, None)
                record.finished.set()
        elif kind == "retry":
            self._retried.inc()
            if record is not None:
                record.state = "retrying"
        elif kind == "timeout":
            self._timeouts.inc()
        elif kind == "crash":
            self._crashes.inc()

    def _finish(self, record: JobRecord, result: JobResult) -> None:
        """Record an executed job's outcome everywhere it goes."""
        job_id = record.job_id
        record.result = result
        record.state = result.status
        self.slo.observe(time.time() - record.submitted_at, ok=result.ok)
        if self.trace_dir is not None:
            self._write_request_trace(record)
            if self.bus is not None:
                self.bus.forget(job_id)
        if not result.ok:
            self._failed.inc()
            if result.error is not None and (
                result.error.type == "VerificationError"
            ):
                self._verify_checks.inc()
                self._verify_failures.inc()
            self.cache.put(record)
            return
        self._completed.inc()
        self._latency.observe(result.elapsed)
        for stage, seconds in result.metrics.get("timings", {}).items():
            if stage != "total":
                self._stage_seconds.observe(seconds, stage=stage)
        snapshot = result.metrics.get("obs")
        if snapshot:
            run = {"run": job_id[:16]}
            for span, seconds in snapshot.get("spans", {}).items():
                self._span_seconds.observe(seconds, exemplar=run, span=span)
        verify = result.metrics.get("verify")
        if verify:
            self._verify_checks.inc()
            self._verify_seconds.observe(verify.get("seconds", 0.0))
        eco = result.metrics.get("eco")
        if eco:
            self._eco_jobs.inc(plan=str(eco.get("plan", "unknown")))
        explain = result.metrics.get("explain")
        if explain:
            # invalid certificates carry the job exemplar so a bad
            # verdict points straight back at a re-runnable job
            run = {"run": job_id[:16]}
            summary = explain.get("summary") or {}
            valid = bool(summary.get("valid", False))
            self._explain_jobs.inc(exemplar=run)
            certs = float(summary.get("certificates", 0) or 0)
            if certs:
                self._explain_certs.inc(
                    certs,
                    exemplar=run,
                    verdict="valid" if valid else "invalid",
                )
            if not valid:
                self._explain_invalid.inc(exemplar=run)
            seconds = result.metrics.get("timings", {}).get("explain")
            if seconds is not None:
                self._explain_seconds.observe(float(seconds), exemplar=run)
        self.cache.put(record)
        self._ledger_append(record)

    def _write_request_trace(self, record: JobRecord) -> None:
        """Write the front-end's synthetic request span tree.

        One ``<job>.req.jsonl`` per executed request, in the worker
        trace schema (meta / span / end records, timestamps relative to
        this file's ``wall_time`` anchor), so the stitcher merges it
        with the worker's ``<job>.jsonl`` into one timeline:

        * ``request`` (id 1) — submit to terminal state, wall to wall;
        * ``request.admit`` (id 2) — canonicalise, cache consult,
          shard, pool admission;
        * ``request.queue`` (id 3) — admission-queue wait (from the
          pool's ``queued_seconds``), stamped with shard/worker/stolen;
        * ``request.dispatch`` (id 4) — from the pool's dequeue (its
          ``dispatch_wall``) to completion; the worker's spans
          re-parent under this id via the trace context.

        Best-effort: a full disk must never fail a completed job.
        """
        job_id, trace = record.job_id, record.trace
        submit_wall = record.submitted_at
        done_wall = time.time()
        total = max(0.0, done_wall - submit_wall)
        admit_s = min(total, trace.get("admit_s", 0.0))
        dispatch_wall = trace.get("dispatch_wall")
        job16 = job_id[:16]
        pid = os.getpid()

        def span(name, sid, ts, dur, self_s, **args):
            out = {
                "type": "span",
                "name": name,
                "id": sid,
                "parent": _REQ_ROOT_ID if sid != _REQ_ROOT_ID else 0,
                "depth": 0 if sid == _REQ_ROOT_ID else 1,
                "ts": max(0.0, ts),
                "dur": max(0.0, dur),
                "self": max(0.0, self_s),
                "pid": pid,
                "tid": 0,
            }
            if args:
                out["args"] = args
            return out

        events = [
            {
                "type": "meta",
                "trace_id": job_id,
                "pid": pid,
                "wall_time": submit_wall,
                "role": "frontend",
                "job": job16,
            },
            span(
                "request.admit", _REQ_ADMIT_ID, 0.0, admit_s, admit_s,
                job=job16,
            ),
        ]
        child_total = admit_s
        if dispatch_wall is not None:
            queued_s = min(total, trace.get("queued_s", 0.0))
            dispatch_ts = min(total, max(0.0, dispatch_wall - submit_wall))
            dispatch_s = total - dispatch_ts
            events.append(
                span(
                    "request.queue",
                    _REQ_QUEUE_ID,
                    dispatch_ts - queued_s,
                    queued_s,
                    queued_s,
                    shard=trace.get("shard"),
                    worker=trace.get("worker"),
                    stolen=trace.get("stolen", False),
                )
            )
            events.append(
                span(
                    "request.dispatch",
                    _REQ_DISPATCH_ID,
                    dispatch_ts,
                    dispatch_s,
                    dispatch_s,
                    job=job16,
                )
            )
            child_total += queued_s + dispatch_s
        events.append(
            span(
                "request",
                _REQ_ROOT_ID,
                0.0,
                total,
                max(0.0, total - child_total),
                job=job16,
            )
        )
        events.append(
            {
                "type": "end",
                "trace_id": job_id,
                "ts": total,
                "counters": {},
                "gauges": {},
                "spans": {e["name"]: e["dur"] for e in events[1:]},
                "pid": pid,
            }
        )
        try:
            obs.write_jsonl(events, self.trace_dir / f"{job16}.req.jsonl")
        except OSError:
            pass

    # -- distributed-trace and SLO queries -----------------------------

    def trace_events(self, job: str) -> list[dict] | None:
        """Stitched timeline for one request (``GET /trace/<job>``).

        *job* is a job id or its 16-char prefix.  Completed requests
        come from the trace directory (front-end + worker files merged
        by :mod:`repro.obs.stitch`); in-flight requests fall back to
        the telemetry bus's live buffer.  Returns None when nothing is
        known about the job.
        """
        if self.trace_dir is not None:
            stitched = obs.stitch_dir(self.trace_dir, job=job)
            if stitched:
                return next(iter(stitched.values()))
        if self.bus is not None:
            live = self.bus.trace(job)
            if live:
                return live
        return None

    def slo_status(self) -> dict:
        """Current SLO burn rates (``GET /slo`` / ``mcretime slo``)."""
        return self.slo.status()

    def explanation(self, job: str) -> dict | None:
        """Explanation payload for one job (``GET /explain/<job>``).

        *job* is a job id or a unique prefix of one (≥8 chars).
        Returns None when the job is unknown, unfinished, or was run
        without ``explain=True``.
        """
        record = self.cache.memory.get(job)
        if record is None and len(job) >= 8:
            matches = [
                r for r in self.cache.memory.values() if r.job_id.startswith(job)
            ]
            record = matches[0] if len(matches) == 1 else None
        if record is None:
            return None
        explain = record.result.metrics.get("explain")
        if not explain:
            return None
        return {
            "job_id": record.result.job_id,
            "cached": record.result.cached,
            "summary": explain.get("summary"),
            "explanation": explain.get("explanation"),
        }

    def _ledger_append(self, record: JobRecord) -> None:
        """Append one ``service.job`` record to the service run ledger."""
        if self.ledger is None:
            return
        job_id, result = record.job_id, record.result
        snapshot = result.metrics.get("obs") or {}
        metrics = {
            key: value
            for key, value in result.metrics.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        metrics["elapsed"] = result.elapsed
        explain = result.metrics.get("explain")
        if explain:
            # the flat explanation summary becomes diffable run-ledger
            # fields (certificate count, validity, witness sizes)
            for key, value in (explain.get("summary") or {}).items():
                if isinstance(value, bool):
                    metrics[f"explain_{key}"] = int(value)
                elif isinstance(value, (int, float)):
                    metrics[f"explain_{key}"] = value
        try:
            self.ledger.append(
                obs.build_record(
                    kind="service.job",
                    run_id=job_id[:16],
                    fingerprint=job_id,
                    config=dict(record.options or {}),
                    spans=snapshot.get("spans") or {},
                    self_times=snapshot.get("self_times") or {},
                    counters=snapshot.get("counters") or {},
                    metrics=metrics,
                )
            )
        except (OSError, ValueError):
            # a broken ledger must never fail a completed job
            pass
