"""Crash-isolated, sharded multiprocessing worker pool for retiming jobs.

Design points:

* **One process per worker, one dispatch queue per worker.**  The
  supervisor assigns a job to a specific idle worker and records the
  assignment *before* the worker can touch it, so a worker death is
  always attributable to the exact job it held — there is no window in
  which a crashing worker loses a job.  (A shared task queue can't give
  that guarantee: ``mp.Queue`` flushes through a feeder thread, so a
  hard ``os._exit``/segfault can swallow the in-flight bookkeeping.)
  All queues are ``SimpleQueue``s — writes land in the pipe before
  ``put`` returns, no feeder threads anywhere.
* **Workers are shard slots.**  Slot *i* owns the keyspace region the
  consistent-hash ring (:class:`~repro.service.sharding.HashRing`)
  assigns to shard *i*; a job's ``shard_key`` (the design fingerprint)
  routes all work on one design to the worker that already holds its
  parsed circuit and warm ECO state.  A crashed worker is
  respawned *into the same slot*, so churn doesn't reshuffle the
  keyspace.  An idle worker with an empty home queue steals from the
  deepest backlog — affinity is a fast path, not a straitjacket.
* **Bounded admission.**  ``max_pending`` caps the queued-not-running
  backlog; :meth:`RetimePool.submit` raises
  :class:`PoolSaturatedError` instead of queueing unboundedly, and the
  service layer turns that into an HTTP 429 with ``Retry-After``.
* **Event-driven dispatch.**  A dedicated drain thread blocks on the
  result pipe and completed jobs wake the supervisor immediately, so
  dispatch latency is microseconds, not a poll interval.  (The
  supervisor still ticks every 50 ms as a fallback to reap corpses,
  enforce timeouts, and release backoff retries.)
* **Crash isolation.**  A segfault, OOM kill, or injected ``os._exit``
  takes down only the job its worker was holding.  The supervisor
  reaps the corpse, respawns a replacement, and requeues the job (with
  exponential backoff) up to ``max_retries`` times before recording a
  structured :class:`~repro.service.jobs.JobFailure`.
* **Per-job timeouts.**  A worker holding a job past ``job_timeout``
  seconds is SIGKILLed and treated like a crash (retry, then fail).
* **Deterministic errors don't retry.**  A Python exception raised by
  :func:`~repro.service.jobs.execute_job` (parse error, invalid
  circuit) is reported back and fails the job immediately — re-running
  a deterministic failure just wastes workers.

The supervisor runs on a daemon thread, so :meth:`RetimePool.submit`
returns immediately and results are awaited per-job via
:meth:`RetimePool.wait` (or in bulk via :meth:`RetimePool.run`).
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

from .jobs import JobFailure, JobResult, RetimeJob, run_payload
from .sharding import DEFAULT_VNODES, HashRing

#: fallback supervisor tick — corpse reaping, timeout enforcement, and
#: retry release run at least this often; dispatch itself is event-driven
_POLL_INTERVAL = 0.05


class PoolSaturatedError(RuntimeError):
    """``submit`` refused a job: the admission queue is full.

    The service layer maps this to HTTP 429 + ``Retry-After``; batch
    callers should back off and resubmit.
    """

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(
            f"admission queue full ({pending} pending, limit {limit})"
        )
        self.pending = pending
        self.limit = limit


def _worker_main(task_q, result_q, env=None, telemetry_q=None) -> None:
    """Worker loop: execute assigned payloads until the ``None`` sentinel.

    *env* entries are applied to ``os.environ`` before the first job, so
    the supervisor can propagate tracing configuration
    (``REPRO_TRACE_DIR`` / ``REPRO_TRACE_SPANS``) across the process
    boundary; the trace id itself is the job's canonical key, carried by
    the job payload.  *telemetry_q* is this worker's end of the live
    telemetry bus — span deltas stream back to the supervisor while the
    job runs (see :mod:`repro.obs.bus`).

    Dispatch items are ``(job_id, attempt, payload, trace_ctx)``
    tuples, the payload being the job dict (netlist text included; see
    :func:`~repro.service.jobs.run_payload`); the trace context
    (minted by the front-end) is stamped into the worker's trace so the
    stitcher can join the two processes' timelines.
    """
    if env:
        os.environ.update(env)
    if telemetry_q is not None:
        from repro.obs import set_worker_queue

        set_worker_queue(telemetry_q)
    while True:
        item = task_q.get()
        if item is None:
            return
        job_id, attempt, payload, trace_ctx = item
        try:
            data = run_payload(job_id, payload, trace_ctx=trace_ctx)
            result_q.put(("done", os.getpid(), job_id, attempt, data))
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            info = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            }
            result_q.put(("error", os.getpid(), job_id, attempt, info))


@dataclass
class _Entry:
    """Supervisor-side bookkeeping for one submitted job."""

    job: RetimeJob
    shard: int = 0
    #: propagated trace context minted by the front-end, shipped with
    #: the dispatch so the worker can stamp (pid, parent_span)
    trace_ctx: dict | None = None
    state: str = "queued"  # queued | running | retrying | done | failed
    attempts: int = 0
    result: JobResult | None = None
    event: threading.Event = field(default_factory=threading.Event)
    submitted_at: float = field(default_factory=time.monotonic)


@dataclass
class _Worker:
    """One worker process bound to a shard slot."""

    slot: int
    proc: mp.Process
    task_q: object
    #: (job_id, attempt, dispatch_monotonic) while busy, else None
    held: tuple[str, int, float] | None = None


@dataclass
class _ShardStats:
    """Cumulative per-slot dispatch accounting (for metrics)."""

    dispatched: int = 0
    stolen: int = 0
    busy_seconds: float = 0.0


class RetimePool:
    """Supervised pool of sharded retiming workers with retry/timeout
    policy and bounded admission.

    Args:
        workers: process count (default ``os.cpu_count()``); also the
            shard count of the consistent-hash ring.
        job_timeout: seconds a single execution may run before the
            worker is killed and the job retried.
        max_retries: crash/timeout retries per job after the first
            attempt (total attempts = ``max_retries + 1``).
        retry_backoff: base delay before a retry; attempt *n* waits
            ``retry_backoff * 2**(n-1)`` seconds.
        max_pending: bound on the queued-not-yet-dispatched backlog;
            ``None`` admits unboundedly (the legacy behaviour).
        on_event: optional callback ``(kind, job_id, **info)`` invoked
            from the supervisor threads for ``done`` / ``failed`` /
            ``retry`` / ``timeout`` / ``crash`` / ``dispatch`` events —
            the service layer hangs its metrics off this.
        worker_env: environment variables applied in every worker
            process before it takes jobs (tracing configuration).
        start_method: multiprocessing start method (``"fork"`` /
            ``"spawn"`` / ``"forkserver"``); ``None`` uses the
            platform default.
        telemetry_bus: optional :class:`repro.obs.TelemetryBus`; when
            given the pool creates a worker→supervisor queue, attaches
            the bus to it, and hands each worker the sending end so
            span deltas stream back live.
    """

    def __init__(
        self,
        workers: int | None = None,
        job_timeout: float = 300.0,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        max_pending: int | None = None,
        on_event=None,
        worker_env: dict[str, str] | None = None,
        start_method: str | None = None,
        telemetry_bus=None,
    ) -> None:
        self.workers = max(1, workers if workers is not None else os.cpu_count() or 1)
        self.job_timeout = job_timeout
        self.max_retries = max(0, max_retries)
        self.retry_backoff = retry_backoff
        self.max_pending = max_pending
        self._on_event = on_event
        self._worker_env = dict(worker_env or {})
        self._telemetry_bus = telemetry_bus
        self._telemetry_q = None
        self._ctx = mp.get_context(start_method)
        self._result_q = self._ctx.SimpleQueue()
        self._ring = HashRing(self.workers, DEFAULT_VNODES)
        self._entries: dict[str, _Entry] = {}
        self._slots: list[_Worker | None] = [None] * self.workers
        self._by_pid: dict[int, _Worker] = {}
        #: per-shard FIFO of (job_id, attempt)
        self._queues: list[deque[tuple[str, int]]] = [
            deque() for _ in range(self.workers)
        ]
        self._pending_total = 0
        self._shard_stats = [_ShardStats() for _ in range(self.workers)]
        self._retry_heap: list[tuple[float, str]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._supervisor: threading.Thread | None = None
        self._drainer: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "RetimePool":
        if self._supervisor is not None:
            return self
        if self._telemetry_bus is not None:
            self._telemetry_q = self._ctx.SimpleQueue()
            self._telemetry_bus.attach(self._telemetry_q)
        for slot in range(self.workers):
            self._spawn_worker(slot)
        self._drainer = threading.Thread(
            target=self._drain_loop, name="retime-pool-drain", daemon=True
        )
        self._drainer.start()
        self._supervisor = threading.Thread(
            target=self._supervise, name="retime-pool-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def close(self, timeout: float = 5.0) -> None:
        """Stop the supervisor and tear the workers down."""
        if self._supervisor is None:
            return
        self._stop.set()
        self._wake.set()
        self._result_q.put(None)  # unblock the drain thread
        self._supervisor.join(timeout=timeout)
        if self._drainer is not None:
            self._drainer.join(timeout=timeout)
        workers = [w for w in self._slots if w is not None]
        for worker in workers:
            try:
                worker.task_q.put(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
        self._slots = [None] * self.workers
        self._by_pid.clear()
        if self._telemetry_bus is not None:
            self._telemetry_bus.close()

    def __enter__(self) -> "RetimePool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission API ------------------------------------------------

    def shard_for(self, shard_key: str) -> int:
        """The home shard the ring assigns to *shard_key*."""
        return self._ring.shard(shard_key)

    def submit(
        self,
        job_id: str,
        job: RetimeJob,
        shard_key: str | None = None,
        trace_ctx: dict | None = None,
    ) -> int:
        """Queue *job* under *job_id*; returns its home shard.

        In-flight ids coalesce.  *shard_key* (typically the design
        fingerprint) routes the job; it defaults to the job id, which
        still spreads uniformly but loses design affinity.  *trace_ctx*
        (``{"trace_id", "parent_span", "parent_pid"}``) rides with the
        dispatch so the worker's trace nests under the front-end's
        request span.  Raises
        :class:`PoolSaturatedError` when the admission queue is at
        ``max_pending``.
        """
        if self._supervisor is None:
            raise RuntimeError("pool is not started")
        shard = self._ring.shard(shard_key if shard_key is not None else job_id)
        with self._lock:
            entry = self._entries.get(job_id)
            if entry is not None and not entry.event.is_set():
                return entry.shard  # already queued or running: coalesce
            if (
                self.max_pending is not None
                and self._pending_total >= self.max_pending
            ):
                raise PoolSaturatedError(self._pending_total, self.max_pending)
            entry = _Entry(job=job, shard=shard, trace_ctx=trace_ctx)
            entry.attempts = 1
            self._entries[job_id] = entry
            self._queues[shard].append((job_id, 1))
            self._pending_total += 1
        self._wake.set()
        return shard

    def wait(self, job_id: str, timeout: float | None = None) -> JobResult:
        """Block until *job_id* finishes; raises ``TimeoutError``."""
        with self._lock:
            entry = self._entries[job_id]
        if not entry.event.wait(timeout):
            raise TimeoutError(f"job {job_id} did not finish in {timeout}s")
        assert entry.result is not None
        return entry.result

    def state(self, job_id: str) -> str:
        with self._lock:
            return self._entries[job_id].state

    def run(self, jobs: dict[str, RetimeJob]) -> dict[str, JobResult]:
        """Submit every job, wait for all, return results by id."""
        for job_id, job in jobs.items():
            self.submit(job_id, job)
        return {job_id: self.wait(job_id) for job_id in jobs}

    # -- introspection -------------------------------------------------

    def queue_depth(self) -> int:
        """Jobs admitted but not yet dispatched to a worker."""
        with self._lock:
            return self._pending_total

    def stats(self) -> dict:
        """Admission/queue/shard snapshot for the metrics endpoint."""
        with self._lock:
            shards = []
            for slot in range(self.workers):
                worker = self._slots[slot]
                st = self._shard_stats[slot]
                busy = worker.held[2] if worker is not None and worker.held else None
                extra = time.monotonic() - busy if busy is not None else 0.0
                shards.append(
                    {
                        "depth": len(self._queues[slot]),
                        "busy": busy is not None,
                        "dispatched": st.dispatched,
                        "stolen": st.stolen,
                        "busy_seconds": st.busy_seconds + extra,
                    }
                )
            return {
                "workers": self.workers,
                "pending": self._pending_total,
                "max_pending": self.max_pending,
                "shards": shards,
            }

    # -- supervisor ----------------------------------------------------

    def _spawn_worker(self, slot: int) -> None:
        task_q = self._ctx.SimpleQueue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(task_q, self._result_q, self._worker_env, self._telemetry_q),
            daemon=True,
            name=f"retime-worker-{slot}",
        )
        proc.start()
        worker = _Worker(slot=slot, proc=proc, task_q=task_q)
        self._slots[slot] = worker
        self._by_pid[proc.pid] = worker

    def _emit(self, kind: str, job_id: str, **info) -> None:
        if self._on_event is not None:
            try:
                self._on_event(kind, job_id, **info)
            except Exception:  # noqa: BLE001 - observer must not kill the pool
                pass

    def _supervise(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(_POLL_INTERVAL)
            self._wake.clear()
            self._reap_dead_workers()
            self._enforce_timeouts()
            self._release_retries()
            self._dispatch()

    def _drain_loop(self) -> None:
        """Block on the result pipe; completions don't wait for a tick."""
        while True:
            item = self._result_q.get()
            if item is None or self._stop.is_set():
                return
            self._handle_result(*item)
            self._wake.set()

    def _next_for_slot(self, slot: int):
        """Pop the next queued job for *slot* (home queue, else steal).

        Caller holds the lock.  Returns ``(job_id, attempt, stolen,
        home_shard)`` or ``None``.
        """
        queue = self._queues[slot]
        if queue:
            self._pending_total -= 1
            job_id, attempt = queue.popleft()
            return job_id, attempt, False, slot
        victim = max(
            range(self.workers), key=lambda s: len(self._queues[s])
        )
        if self._queues[victim]:
            self._pending_total -= 1
            job_id, attempt = self._queues[victim].popleft()
            return job_id, attempt, True, victim
        return None

    def _dispatch(self) -> None:
        """Hand pending jobs to idle workers, recording the assignment
        before the worker can possibly start executing."""
        while True:
            with self._lock:
                if self._pending_total == 0:
                    return
                idle = [
                    w
                    for w in self._slots
                    if w is not None
                    and w.held is None
                    and w.proc.is_alive()
                ]
                assignment = None
                # pass 1: home-queue dispatch (cache affinity)
                for worker in idle:
                    if self._queues[worker.slot]:
                        assignment = (worker, self._next_for_slot(worker.slot))
                        break
                # pass 2: no idle worker has home work — steal
                if assignment is None:
                    for worker in idle:
                        item = self._next_for_slot(worker.slot)
                        if item is not None:
                            assignment = (worker, item)
                            break
                if assignment is None:
                    return
                worker, (job_id, attempt, stolen, home) = assignment
                entry = self._entries.get(job_id)
                if entry is None or entry.event.is_set():
                    continue  # stale queue entry; pick again
                entry.state = "running"
                entry.attempts = attempt
                payload = entry.job.to_dict()
                queued_s = time.monotonic() - entry.submitted_at
                # the same instant, so the request timeline's queue span
                # ends where its dispatch span starts (stamping after the
                # hand-off below left a gap there)
                dispatch_wall = time.time()
                worker.held = (job_id, attempt, time.monotonic())
                stats = self._shard_stats[worker.slot]
                stats.dispatched += 1
                if stolen:
                    stats.stolen += 1
            worker.task_q.put((job_id, attempt, payload, entry.trace_ctx))
            self._emit(
                "dispatch",
                job_id,
                shard=home,
                worker=worker.slot,
                stolen=stolen,
                queued_seconds=queued_s,
                dispatch_wall=dispatch_wall,
            )

    def _handle_result(self, kind, pid, job_id, attempt, payload) -> None:
        with self._lock:
            worker = self._by_pid.get(pid)
            if worker is not None and worker.held and worker.held[0] == job_id:
                self._shard_stats[worker.slot].busy_seconds += (
                    time.monotonic() - worker.held[2]
                )
                worker.held = None
            entry = self._entries.get(job_id)
        if entry is None:
            return
        if kind == "done":
            result = JobResult.from_dict(payload)
            result.attempts = attempt
            self._finish(entry, job_id, result)
        else:  # deterministic Python-level failure: no retry
            result = JobResult(
                job_id=job_id,
                status="failed",
                error=JobFailure(**payload),
                attempts=attempt,
            )
            self._finish(entry, job_id, result)

    def _finish(self, entry: _Entry, job_id: str, result: JobResult) -> None:
        if entry.event.is_set():
            return  # a raced duplicate (timeout kill vs. late done)
        with self._lock:
            entry.result = result
            entry.state = result.status
        # observers (cache/ledger/metrics writes) run BEFORE waiters
        # wake: a client that saw the job finish must find its side
        # effects already durable
        self._emit(result.status, job_id, result=result)
        entry.event.set()

    def _reap_dead_workers(self) -> None:
        with self._lock:
            dead = [
                w for w in self._by_pid.values() if not w.proc.is_alive()
            ]
        for worker in dead:
            worker.proc.join(timeout=0.1)
            with self._lock:
                self._by_pid.pop(worker.proc.pid, None)
                held = worker.held
                if held is not None:
                    self._shard_stats[worker.slot].busy_seconds += (
                        time.monotonic() - held[2]
                    )
                respawn = (
                    not self._stop.is_set()
                    and self._slots[worker.slot] is worker
                )
            if respawn:
                self._spawn_worker(worker.slot)
            if held is not None:
                job_id, attempt, _t0 = held
                self._emit("crash", job_id, exitcode=worker.proc.exitcode)
                self._retry_or_fail(
                    job_id,
                    attempt,
                    reason="worker_crash",
                    message=(
                        f"worker died with exit code {worker.proc.exitcode} "
                        f"on attempt {attempt}"
                    ),
                )

    def _enforce_timeouts(self) -> None:
        if self.job_timeout is None:
            return
        now = time.monotonic()
        with self._lock:
            overdue = [
                w
                for w in self._by_pid.values()
                if w.held is not None and now - w.held[2] > self.job_timeout
            ]
        for worker in overdue:
            with self._lock:
                self._by_pid.pop(worker.proc.pid, None)
                held = worker.held
                if held is not None:
                    self._shard_stats[worker.slot].busy_seconds += (
                        time.monotonic() - held[2]
                    )
                respawn = (
                    not self._stop.is_set()
                    and self._slots[worker.slot] is worker
                )
            worker.proc.kill()
            worker.proc.join(timeout=1.0)
            if respawn:
                self._spawn_worker(worker.slot)
            if held is None:
                continue
            job_id, attempt, _t0 = held
            self._emit("timeout", job_id, attempt=attempt)
            self._retry_or_fail(
                job_id,
                attempt,
                reason="timeout",
                message=(
                    f"attempt {attempt} exceeded the {self.job_timeout:.1f}s "
                    f"job timeout"
                ),
            )

    def _retry_or_fail(
        self, job_id: str, attempt: int, reason: str, message: str
    ) -> None:
        with self._lock:
            entry = self._entries.get(job_id)
        if entry is None or entry.event.is_set():
            return
        if attempt <= self.max_retries:
            delay = self.retry_backoff * (2 ** (attempt - 1))
            with self._lock:
                entry.state = "retrying"
                entry.attempts = attempt + 1
            heapq.heappush(
                self._retry_heap, (time.monotonic() + delay, job_id)
            )
            self._emit("retry", job_id, attempt=attempt + 1, reason=reason)
        else:
            result = JobResult(
                job_id=job_id,
                status="failed",
                error=JobFailure(type=reason, message=message),
                attempts=attempt,
            )
            self._finish(entry, job_id, result)

    def _release_retries(self) -> None:
        now = time.monotonic()
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _ready, job_id = heapq.heappop(self._retry_heap)
            with self._lock:
                entry = self._entries.get(job_id)
                if entry is None or entry.event.is_set():
                    continue
                # retries bypass the admission bound: the job was
                # already admitted once
                self._queues[entry.shard].append((job_id, entry.attempts))
                self._pending_total += 1
            self._wake.set()
