"""Job specifications for the batch retiming service.

A :class:`RetimeJob` bundles everything needed to retime one design —
the netlist text plus the flow/objective/delay-model options — into a
value object with a deterministic **content-addressed key**: the
SHA-256 of the canonicalised BLIF (parse the netlist, re-emit it with
:func:`~repro.netlist.write_blif`) concatenated with the sorted JSON of
the execution options.  Two submissions that differ only in whitespace,
comment placement, or source format hash to the same key, so the result
cache deduplicates them.

:func:`execute_job` is the single worker entry point: it runs the job
through :func:`repro.flows.run_flow` and returns a :class:`JobResult`
whose ``metrics`` dict (:meth:`repro.flows.FlowResult.metrics`) carries
every number the paper tables need (the experiment runners build their
rows from it without shipping circuits across process boundaries).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

from .. import obs
from ..flows import FlowResult, run_flow
from ..flows.script import FLOWS, TRANSFORMS, measure
from ..lru import LRU
from ..netlist import (
    Circuit,
    check_circuit,
    read_blif,
    read_verilog,
    write_blif,
    write_verilog,
)
from ..timing import UNIT_DELAY, XC4000E_DELAY

#: Flows a job may request (:func:`repro.flows.run_flow`).  ``mcretime``
#: retimes the netlist as-is (the plain ``mcretime file.blif`` CLI
#: behaviour); the other three are the paper's Table 1/2/3 synthesis
#: scripts.
JOB_FLOWS = FLOWS

#: Fault-injection flows used by the integration tests and ops drills:
#: ``__crash__`` hard-kills the worker process mid-job, ``__hang__``
#: sleeps past any reasonable timeout.  They exercise the pool's crash
#: isolation and timeout/retry paths without patching worker code.
FAULT_FLOWS = ("__crash__", "__hang__")

_DELAY_MODELS = {"unit": UNIT_DELAY, "xc4000e": XC4000E_DELAY}
_FORMATS = ("blif", "verilog")

#: Throughput transforms a job may request (``docs/PIPELINE.md``).
#: ``pipeline`` inserts ``stages`` output register layers before
#: retiming; ``cslow`` replicates every register ``factor`` times.
#: Transforms compose with the ``mcretime`` (unmapped) and ``retime``
#: (mapped XC4000E) flows only.
JOB_TRANSFORMS = TRANSFORMS


def _parse(netlist: str, fmt: str, name: str) -> Circuit:
    if fmt == "verilog":
        return read_verilog(netlist)
    return read_blif(netlist, name_hint=name)


#: A worker's parse cache for the ``mcretime`` flow, keyed by
#: ``(netlist, fmt, name)``: the shard ring routes every job on one
#: design to one worker, so a target-period sweep parses the design
#: once.  Four entries: a sweep cycles through a few designs per worker
#: (the 1-worker sweep of benchmarks/bench_service.py through 4), and
#: an LRU smaller than that cycle never hits.  Served traffic needs no
#: more: the result cache answers resubmitted designs and every ECO job
#: ships new text, so further entries would only hold memory.  Callers
#: must not mutate a cached circuit: it serves every job on the design.
_PARSED: "LRU[tuple[str, str, str], Circuit]" = LRU(4)


def design_fingerprint(canonical_text: str) -> str:
    """Content address of a canonicalised design (SHA-256 hex)."""
    return hashlib.sha256(canonical_text.encode()).hexdigest()


def _emit(circuit: Circuit, fmt: str) -> str:
    if fmt == "verilog":
        return write_verilog(circuit)
    return write_blif(circuit)


@dataclass(frozen=True)
class RetimeJob:
    """One retiming request: netlist text plus execution options."""

    netlist: str
    fmt: str = "blif"
    #: model-name hint for BLIF sources without a ``.model`` line
    name: str = "design"
    flow: str = "mcretime"
    objective: str = "minarea"
    #: ``None`` resolves to ``unit`` for the raw ``mcretime`` flow and
    #: ``xc4000e`` for the mapped synthesis flows, matching the CLI.
    delay_model: str | None = None
    target_period: float | None = None
    semantic_classes: bool = True
    #: refinement-check every leg the flow ran (input -> mapped design
    #: -> output for the mapped flows, see ``run_flow``); a mismatch
    #: fails the job with a non-retryable ``VerificationError``
    verify: bool = False
    verify_cycles: int = 64
    #: attach a certificate-backed explanation of the result
    #: (:mod:`repro.obs.explain`) under ``metrics["explain"]``, served
    #: back by ``GET /explain/<job>``.  Requesting an explanation
    #: changes the job's content key — explained and plain runs cache
    #: separately because their results differ.
    explain: bool = False
    #: format of ``JobResult.output`` (defaults to the input format)
    output_fmt: str | None = None
    #: optional throughput transform (``"pipeline"`` / ``"cslow"``);
    #: with ``verify=True`` the output is checked with the matching
    #: refinement checker (latency-shifted / thread-interleaving)
    #: instead of the plain sequential check
    transform: str | None = None
    #: pipeline stages (used when ``transform == "pipeline"``)
    stages: int = 1
    #: C-slow factor (used when ``transform == "cslow"``)
    factor: int = 2
    #: ECO metadata (``docs/ECO.md``): the design fingerprint of the
    #: base this job was derived from.  ``netlist`` always holds the
    #: full *edited* design — the content address, cache key, and cold
    #: path never depend on the ECO fields, so an ECO submission
    #: dedupes against an equivalent full submission.  When the worker
    #: also has ``base_netlist`` it retimes incrementally
    #: (:func:`repro.eco.eco_retime`), bit-identical but warm.
    base_key: str | None = None
    #: canonical BLIF of the base design (ships the warm path's input;
    #: ``None`` degrades to a plain cold solve)
    base_netlist: str | None = None
    #: the JSON edit script of the original request (audit trail only)
    edit: str | None = None

    def __post_init__(self) -> None:
        if self.fmt not in _FORMATS:
            raise ValueError(f"unknown netlist format {self.fmt!r}")
        if self.flow not in JOB_FLOWS + FAULT_FLOWS:
            raise ValueError(f"unknown flow {self.flow!r}; choose from {JOB_FLOWS}")
        if self.objective not in ("minarea", "minperiod"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.delay_model is not None and self.delay_model not in _DELAY_MODELS:
            raise ValueError(f"unknown delay model {self.delay_model!r}")
        if self.output_fmt is not None and self.output_fmt not in _FORMATS:
            raise ValueError(f"unknown output format {self.output_fmt!r}")
        if not isinstance(self.verify, bool):
            raise ValueError(f"verify must be a bool, got {self.verify!r}")
        if not isinstance(self.explain, bool):
            raise ValueError(f"explain must be a bool, got {self.explain!r}")
        if (
            not isinstance(self.verify_cycles, int)
            or isinstance(self.verify_cycles, bool)
            or self.verify_cycles < 1
        ):
            raise ValueError(
                f"verify_cycles must be a positive int, got {self.verify_cycles!r}"
            )
        if self.transform is not None:
            if self.transform not in JOB_TRANSFORMS:
                raise ValueError(
                    f"unknown transform {self.transform!r}; "
                    f"choose from {JOB_TRANSFORMS}"
                )
            if self.flow not in ("mcretime", "retime"):
                raise ValueError(
                    f"transform {self.transform!r} requires flow "
                    f"'mcretime' or 'retime', not {self.flow!r}"
                )
        if (
            not isinstance(self.stages, int)
            or isinstance(self.stages, bool)
            or self.stages < 0
        ):
            raise ValueError(
                f"stages must be a non-negative int, got {self.stages!r}"
            )
        if (
            not isinstance(self.factor, int)
            or isinstance(self.factor, bool)
            or self.factor < 1
        ):
            raise ValueError(
                f"factor must be a positive int, got {self.factor!r}"
            )
        if self.base_netlist is not None and self.base_key is None:
            raise ValueError("base_netlist requires base_key")
        if self.edit is not None:
            try:
                ops = json.loads(self.edit)
            except json.JSONDecodeError as exc:
                raise ValueError(f"edit is not valid JSON: {exc}") from None
            if not isinstance(ops, list):
                raise ValueError("edit must be a JSON list of edit ops")

    @classmethod
    def from_file(cls, path: str | Path, **options) -> "RetimeJob":
        """Build a job from a netlist file (format from the suffix)."""
        path = Path(path)
        fmt = "verilog" if path.suffix in (".v", ".sv") else "blif"
        return cls(netlist=path.read_text(), fmt=fmt, name=path.stem, **options)

    def resolved_delay_model(self) -> str:
        if self.delay_model is not None:
            return self.delay_model
        return "unit" if self.flow == "mcretime" else "xc4000e"

    def resolved_output_fmt(self) -> str:
        return self.output_fmt or self.fmt

    def options(self) -> dict[str, object]:
        """The execution-relevant options (all defaults resolved)."""
        return {
            "flow": self.flow,
            "objective": self.objective,
            "delay_model": self.resolved_delay_model(),
            "target_period": self.target_period,
            "semantic_classes": self.semantic_classes,
            "verify": self.verify,
            "verify_cycles": self.verify_cycles if self.verify else None,
            "explain": self.explain,
            "output_fmt": self.resolved_output_fmt(),
            # transform-irrelevant knobs are nulled so e.g. a plain
            # retime job never collides with (or misses) a cache entry
            # over an unused stages/factor value
            "transform": self.transform,
            "stages": self.stages if self.transform == "pipeline" else None,
            "factor": self.factor if self.transform == "cslow" else None,
        }

    @cached_property
    def canonical_netlist(self) -> str:
        """The canonicalised BLIF emission of the parsed netlist.

        The design-level content address: two sources that differ only
        in whitespace, comments, or syntax variants (``.latch`` vs
        ``.mcff``) — or even in source format — emit identical text.
        """
        circuit = _parse(self.netlist, self.fmt, self.name)
        return _emit(circuit, "blif")

    @cached_property
    def canonical_key(self) -> str:
        """Content-addressed job key (SHA-256 hex).

        The hash of :attr:`canonical_netlist` plus the sorted JSON of
        the execution options.  Parse errors propagate to the
        submitter, which doubles as early input validation.
        """
        payload = self.canonical_netlist + "\n" + json.dumps(
            self.options(), sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "RetimeJob":
        return cls(**data)


@dataclass
class JobFailure:
    """Structured error record for a failed job."""

    #: ``worker_crash``, ``timeout``, or the exception class name
    type: str
    message: str
    traceback: str = ""

    def to_dict(self) -> dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "JobFailure":
        return cls(**data)


@dataclass
class JobResult:
    """Outcome of one job: retimed netlist text plus table metrics."""

    job_id: str
    status: str  # "done" | "failed"
    output: str | None = None
    output_fmt: str = "blif"
    metrics: dict = field(default_factory=dict)
    error: JobFailure | None = None
    #: execution attempts consumed (1 unless crashes/timeouts forced retries)
    attempts: int = 1
    #: True when served from the result cache instead of a worker
    cached: bool = False
    #: wall-clock seconds of the successful execution
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "done"

    def to_dict(self) -> dict[str, object]:
        data = asdict(self)
        data["error"] = self.error.to_dict() if self.error else None
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "JobResult":
        data = dict(data)
        if data.get("error"):
            data["error"] = JobFailure.from_dict(data["error"])
        return cls(**data)


@dataclass(eq=False)
class JobRecord:
    """One admitted job as the service holds it.

    The service keeps a record in flight from admission until
    :attr:`result` is set, then as one of the result cache's finished
    jobs.  A record built with its result is finished at once.
    """

    job_id: str
    #: fingerprint of the job's canonical netlist (its ECO ``base_key``)
    design_key: str | None = None
    #: wall-clock time of the submission this record answers
    submitted_at: float = field(default_factory=time.time)
    #: ``queued`` | ``running`` | ``retrying`` | ``done`` | ``failed``
    state: str = "queued"
    result: JobResult | None = None
    #: execution options of an executed job (its run-ledger config)
    options: dict | None = None
    #: the front-end request timeline of an executed job
    trace: dict = field(default_factory=dict)
    #: set once ``result`` is final and every side effect is durable
    finished: threading.Event = field(
        default_factory=threading.Event, repr=False
    )

    def __post_init__(self) -> None:
        if self.result is not None:
            self.state = self.result.status
            self.finished.set()

    def wait(self, timeout: float | None = None) -> JobResult:
        """Block until the job finishes; raises ``TimeoutError``."""
        if not self.finished.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not finish in {timeout}s"
            )
        return self.result

    def to_dict(self) -> dict[str, object]:
        """The JSON-friendly status record of ``GET /jobs/<id>``."""
        result = self.result
        return {
            "job_id": self.job_id,
            "state": self.state,
            "cached": result is not None and result.cached,
            "submitted_at": self.submitted_at,
            "design_key": self.design_key,
            "result": result.to_dict() if result is not None else None,
        }


def execute_job(
    job: RetimeJob,
    *,
    job_id: str | None = None,
    circuit: Circuit | None = None,
) -> JobResult:
    """Run *job* to completion (worker-side entry point).

    Raises on deterministic errors (parse failures, invalid circuits);
    the pool records those as immediate failures without retrying.

    Args:
        job: the job to execute.
        job_id: the job's content key, when the submitter already
            computed it — saves the worker a parse + re-emit.
        circuit: a pre-parsed circuit for ``job.netlist`` (the
            worker's parse cache).  The circuit is never mutated, so
            one parsed instance serves every job touching the design.
    """
    if job.flow == "__crash__":
        # simulate a segfault/OOM kill: bypass all Python cleanup
        os._exit(139)
    if job.flow == "__hang__":
        # simulate a wedged worker: sleep far past any sane job timeout
        while True:  # pragma: no cover - killed by the pool
            time.sleep(60)

    key = job_id or job.canonical_key
    t0 = time.perf_counter()
    with obs.job_trace(key) as tracer:
        with obs.span("job.execute", flow=job.flow, job=key[:16]):
            if circuit is None:
                circuit = _parse(job.netlist, job.fmt, job.name)
            check_circuit(circuit)
            model = _DELAY_MODELS[job.resolved_delay_model()]
            flow = run_flow(
                circuit,
                job.flow,
                objective=job.objective,
                delay_model=model,
                target_period=job.target_period,
                semantic_classes=job.semantic_classes,
                verify=job.verify,
                verify_cycles=job.verify_cycles,
                explain=job.explain,
                transform=job.transform,
                stages=job.stages,
                factor=job.factor,
                base_key=job.base_key,
                base_netlist=job.base_netlist,
            )
            check_circuit(flow.circuit)
            metrics = _metrics(job, circuit, flow)
        if tracer is not None:
            metrics["obs"] = tracer.snapshot()
    out_fmt = job.resolved_output_fmt()
    return JobResult(
        job_id=key,
        status="done",
        output=_emit(flow.circuit, out_fmt),
        output_fmt=out_fmt,
        metrics=metrics,
        elapsed=time.perf_counter() - t0,
    )


def _metrics(job: RetimeJob, circuit: Circuit, flow: FlowResult) -> dict:
    """The served ``metrics`` of *job*, run on *circuit* as *flow*.

    :meth:`FlowResult.metrics`, except that a transform on the mapped
    flow reports the submitted netlist, not the mapped one, as its
    ``baseline``: clients read the mapped design's period as the
    transform's ``period_before``.
    """
    metrics = flow.metrics()
    if job.transform is not None and job.flow != "mcretime":
        model = _DELAY_MODELS[job.resolved_delay_model()]
        metrics["baseline"] = measure(circuit, model).summary()
    return metrics


def run_payload(
    job_id: str, payload: dict, trace_ctx: dict | None = None
) -> dict:
    """Worker-side dispatch entry: resolve, execute, serialise one job.

    This is what :func:`repro.service.pool._worker_main` calls per
    dispatch item; *payload* is the job dict, netlist text included.
    It owns the worker's end of the distributed trace: the whole
    lifetime — payload resolution (rebuild + parse), execution, and
    response serialisation — runs under one
    :func:`repro.obs.job_trace` stamped with *trace_ctx* (the
    ``{"trace_id", "parent_span", "parent_pid"}`` context minted by the
    front-end), so the stitcher can nest this process's spans under the
    request span that dispatched the job:

    * ``worker.resolve`` — rebuild the job and, for the plain
      ``mcretime`` flow, parse its netlist through :data:`_PARSED`;
    * ``job.execute`` — the flow proper (inside :func:`execute_job`,
      whose inner ``job_trace`` joins this outer tracer);
    * ``worker.respond`` — result serialisation for the return pipe.

    The final ``metrics["obs"]`` snapshot is taken after *all* worker
    spans close, so the shipped span totals equal the trace file's.
    Returns the ``JobResult`` dict to put on the result queue.
    """
    with obs.job_trace(job_id, parent=trace_ctx) as tracer:
        with obs.span("worker.resolve", job=job_id[:16]):
            job = RetimeJob.from_dict(payload)
            circuit = None
            if job.flow == "mcretime" and job.transform is None:
                key = (job.netlist, job.fmt, job.name)
                circuit = _PARSED.get(key)
                if circuit is None:
                    circuit = _parse(*key)
                    _PARSED.put(key, circuit)
        result = execute_job(job, job_id=job_id, circuit=circuit)
        with obs.span("worker.respond", job=job_id[:16]):
            data = result.to_dict()
        if tracer is not None:
            data["metrics"]["obs"] = tracer.snapshot()
    return data
