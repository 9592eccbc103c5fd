"""Batch retiming service: jobs, cache, worker pool, metrics, HTTP API.

The service layer turns the single-shot flows of :mod:`repro.flows`
into a servable, fault-tolerant batch engine:

* :class:`RetimeJob` / :class:`JobResult` / :class:`JobRecord` —
  content-addressed job specs, structured outcomes and the service's
  per-job record (:mod:`repro.service.jobs`);
* :class:`ResultCache` — the finished jobs: an LRU over a disk tier
  (:mod:`repro.service.cache`);
* :class:`RetimePool` — crash-isolated, consistent-hash-sharded
  multiprocessing pool with per-job timeouts, bounded retries, and
  bounded admission (:mod:`repro.service.pool` /
  :mod:`repro.service.sharding`);
* :class:`MetricsRegistry` — Prometheus-exportable counters and
  histograms (:mod:`repro.service.metrics`);
* :class:`RetimeService` — the façade combining all of the above
  (:mod:`repro.service.engine`);
* :func:`make_server` / :class:`RetimeClient` — asyncio HTTP/1.1 JSON
  API (keep-alive, pipelining, backpressure) and keep-alive client
  (:mod:`repro.service.server` / ``.client``).

See ``docs/SERVICE.md`` for the API and failure-semantics reference.
"""

from .cache import ResultCache
from .client import RetimeClient, ServiceError, ServiceOverloadedError
from .engine import RetimeService
from .jobs import (
    JOB_FLOWS,
    JOB_TRANSFORMS,
    JobFailure,
    JobRecord,
    JobResult,
    RetimeJob,
    design_fingerprint,
    execute_job,
    run_payload,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .pool import PoolSaturatedError, RetimePool
from .server import AsyncRetimeServer, make_server, serve_forever
from .sharding import HashRing

__all__ = [
    "JOB_FLOWS",
    "JOB_TRANSFORMS",
    "AsyncRetimeServer",
    "Counter",
    "HashRing",
    "Histogram",
    "JobFailure",
    "JobRecord",
    "JobResult",
    "MetricsRegistry",
    "PoolSaturatedError",
    "ResultCache",
    "RetimeClient",
    "RetimeJob",
    "RetimePool",
    "RetimeService",
    "ServiceError",
    "ServiceOverloadedError",
    "design_fingerprint",
    "execute_job",
    "make_server",
    "run_payload",
    "serve_forever",
]
