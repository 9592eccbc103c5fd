"""Job specifications for the batch retiming service.

A :class:`RetimeJob` bundles everything needed to retime one design —
the netlist text plus the flow/objective/delay-model options — into a
value object with a deterministic **content-addressed key**: the
SHA-256 of the canonicalised BLIF (parse the netlist, re-emit it with
:func:`~repro.netlist.write_blif`) concatenated with the sorted JSON of
the execution options.  Two submissions that differ only in whitespace,
comment placement, or source format hash to the same key, so the result
cache deduplicates them.

:func:`execute_job` is the single worker entry point: it runs the
requested flow and returns a :class:`JobResult` whose ``metrics`` dict
carries every number the paper tables need (so the experiment runners
can rebuild their rows from job results without shipping circuits
across process boundaries).
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
from ..flows import (
    FlowResult,
    baseline_flow,
    cslow_flow,
    decomposed_enable_flow,
    pipeline_flow,
    retime_flow,
)
from ..lru import LRU
from ..mcretime import MCRetimeResult, mc_retime
from ..pipeline import cslow_retime, pipeline_retime
from ..netlist import (
    Circuit,
    check_circuit,
    circuit_stats,
    read_blif,
    read_verilog,
    write_blif,
    write_verilog,
)
from ..timing import UNIT_DELAY, XC4000E_DELAY, analyze
from ..verify import (
    VerificationError,
    check_cslow,
    check_pipeline,
    check_sequential,
)

#: Flows a job may request.  ``mcretime`` retimes the netlist as-is
#: (the plain ``mcretime file.blif`` CLI behaviour); the other three are
#: the paper's Table 1/2/3 synthesis scripts from :mod:`repro.flows`.
JOB_FLOWS = ("mcretime", "baseline", "retime", "decomposed_enable")

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
#: Transforms compose with the ``mcretime`` (engine-level) and
#: ``retime`` (mapped XC4000E) flows only.
JOB_TRANSFORMS = ("pipeline", "cslow")


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
    #: sequentially verify the output against the input after the flow
    #: (coverage-directed bit-parallel refinement check); a mismatch
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


#: worker-local ECO states, keyed by (base fingerprint, delay model,
#: semantic classes) — one per base design the worker has seen.  The
#: shard ring routes every job for one base to the same worker, so
#: repeated edits of one base find its prefix and solve cache here.
_ECO_STATES: "LRU[tuple, object]" = LRU(4)


def _eco_state(job: RetimeJob, model):
    """Get or build the worker's :class:`repro.eco.EcoState` for the
    job's base design; returns ``None`` when the base text is absent or
    unparsable (the caller then runs the plain cold path)."""
    from ..eco import EcoState

    if job.base_key is None or job.base_netlist is None:
        return None
    key = (job.base_key, job.resolved_delay_model(), job.semantic_classes)
    state = _ECO_STATES.get(key)
    if state is not None:
        return state
    try:
        base = read_blif(job.base_netlist, name_hint=job.name)
        check_circuit(base)
    except Exception:  # noqa: BLE001 - degrade to cold, never fail the job
        obs.count("eco.base_parse_error")
        return None
    state = EcoState(
        base, delay_model=model, semantic_classes=job.semantic_classes
    )
    _ECO_STATES.put(key, state)
    return state


def _measure(circuit: Circuit, model) -> dict[str, object]:
    stats = circuit_stats(circuit)
    return {
        "n_ff": stats.n_ff,
        "n_lut": stats.n_lut,
        "n_gates": len(circuit.gates),
        "delay": analyze(circuit, model).max_delay,
        "has_async": stats.has_async,
        "has_enable": stats.has_enable,
    }


def _retime_metrics(result: MCRetimeResult) -> dict[str, object]:
    fractions = result.timing_fractions()
    return {
        "n_classes": result.n_classes,
        "steps_moved": result.steps_moved,
        "steps_possible": result.steps_possible,
        "period_before": result.period_before,
        "period_after": result.period_after,
        "ff_before": result.ff_before,
        "ff_after": result.ff_after,
        "resolve_attempts": result.resolve_attempts,
        "local_steps": result.stats.local_steps,
        "global_steps": result.stats.global_steps,
        "forward_steps": result.stats.forward_steps,
        "local_fraction": result.stats.local_fraction,
        "basic_fraction": fractions["basic_retiming"],
        "relocate_fraction": fractions["relocation"],
        "overhead_fraction": fractions["mc_overhead"],
        "cpu_seconds": sum(result.timings.values()),
    }


def _flow_metrics(flow: FlowResult) -> dict[str, object]:
    metrics: dict[str, object] = {
        "final": {
            "n_ff": flow.n_ff,
            "n_lut": flow.n_lut,
            "delay": flow.delay,
            "has_async": flow.has_async,
            "has_enable": flow.has_enable,
            "accepted": flow.accepted,
        },
        "timings": dict(flow.timings),
    }
    if flow.retime is not None:
        metrics["retime"] = _retime_metrics(flow.retime)
    if flow.explain is not None:
        metrics["explain"] = _explain_metrics(flow.explain)
    return metrics


def _explain_metrics(explanation: dict) -> dict[str, object]:
    """Package an explanation for ``JobResult.metrics["explain"]``:
    the full certificate payload plus the flat summary the run ledger
    and the service counters consume."""
    from ..obs.explain import summary_metrics

    return {
        "summary": summary_metrics(explanation),
        "explanation": explanation,
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
        metrics = _run_flow(job, key, circuit=circuit)
        if tracer is not None:
            metrics["obs"] = tracer.snapshot()
    out_circuit = metrics.pop("_circuit")
    out_fmt = job.resolved_output_fmt()
    return JobResult(
        job_id=key,
        status="done",
        output=_emit(out_circuit, out_fmt),
        output_fmt=out_fmt,
        metrics=metrics,
        elapsed=time.perf_counter() - t0,
    )


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


def _run_flow(job: RetimeJob, key: str, circuit: Circuit | None = None) -> dict:
    """Execute the job's flow; returns its metrics dict (the output
    circuit rides along under the ``_circuit`` key)."""
    with obs.span("job.execute", flow=job.flow, job=key[:16]):
        if circuit is None:
            circuit = _parse(job.netlist, job.fmt, job.name)
        check_circuit(circuit)
        model = _DELAY_MODELS[job.resolved_delay_model()]
        metrics = _dispatch_flow(job, circuit, model)
        if job.verify:
            _verify_output(job, circuit, metrics)
    return metrics


def _verify_output(job: RetimeJob, circuit: Circuit, metrics: dict) -> None:
    """Check the job's output against its input.

    Plain jobs run the sequential refinement check; transform jobs run
    the matching transform checker (latency-shifted for ``pipeline``,
    thread-interleaving for ``cslow``).  The verdict rides along in
    ``metrics["verify"]``; a failed check raises
    :class:`~repro.verify.VerificationError`, which the pool treats as
    a deterministic error (no retry — the checkers are deterministic in
    their seed, so re-running cannot pass).
    """
    t0 = time.perf_counter()
    with obs.span(
        "verify.check", cycles=job.verify_cycles, transform=job.transform
    ):
        if job.transform == "pipeline":
            check = check_pipeline(
                circuit, metrics["_circuit"], shift=job.stages,
                cycles=job.verify_cycles,
            )
        elif job.transform == "cslow":
            check = check_cslow(
                circuit, metrics["_circuit"], job.factor,
                cycles=job.verify_cycles,
            )
        else:
            check = check_sequential(
                circuit, metrics["_circuit"], cycles=job.verify_cycles
            )
    metrics["verify"] = {
        "equivalent": check.equivalent,
        "cycles": check.cycles,
        "lanes": check.lanes,
        "seconds": time.perf_counter() - t0,
    }
    if not check.equivalent:
        raise VerificationError(check)


def _dispatch_transform(job: RetimeJob, circuit: Circuit, model) -> dict:
    """Run a pipeline/cslow job (engine-level or mapped flow)."""
    if job.flow == "mcretime":
        if job.transform == "pipeline":
            result = pipeline_retime(
                circuit,
                job.stages,
                model,
                objective=job.objective,
                target_period=job.target_period,
                semantic_classes=job.semantic_classes,
                explain=job.explain,
            )
        else:
            result = cslow_retime(
                circuit,
                job.factor,
                model,
                objective=job.objective,
                target_period=job.target_period,
                semantic_classes=job.semantic_classes,
                explain=job.explain,
            )
        out_circuit = result.circuit
        check_circuit(out_circuit)
        metrics = {
            "baseline": _measure(circuit, model),
            "final": {**_measure(out_circuit, model), "accepted": True},
            "retime": _retime_metrics(result.retime),
            "transform": result.report(),
            "timings": dict(result.timings),
        }
        if result.retime.explanation is not None:
            metrics["explain"] = _explain_metrics(result.retime.explanation)
    else:  # flow == "retime": the mapped XC4000E flow
        flow_fn = pipeline_flow if job.transform == "pipeline" else cslow_flow
        amount = job.stages if job.transform == "pipeline" else job.factor
        flow = flow_fn(
            circuit,
            amount,
            model,
            objective=job.objective,
            target_period=job.target_period,
            semantic_classes=job.semantic_classes,
            explain=job.explain,
        )
        out_circuit = flow.circuit
        metrics = _flow_metrics(flow)
        metrics["baseline"] = _measure(circuit, model)
        metrics["transform"] = flow.transform
    metrics["_circuit"] = out_circuit
    return metrics


def _dispatch_flow(job: RetimeJob, circuit: Circuit, model) -> dict:
    if job.transform is not None:
        return _dispatch_transform(job, circuit, model)
    if job.flow == "mcretime":
        eco_info = None
        # the warm (ECO) path reuses a prior solve and never rebuilds
        # the certificate inputs, so explain requests take the cold path
        state = None if job.explain else _eco_state(job, model)
        if state is not None:
            from ..eco import eco_retime

            eco = eco_retime(
                state,
                circuit,
                target_period=job.target_period,
                objective=job.objective,
            )
            result = eco.result
            eco_info = {
                "plan": eco.plan,
                "dirty_fraction": eco.dirty_fraction,
                "fallback_reason": eco.fallback_reason,
                "patched_entries": eco.patched_entries,
            }
        else:
            result = mc_retime(
                circuit,
                delay_model=model,
                target_period=job.target_period,
                objective=job.objective,
                semantic_classes=job.semantic_classes,
                explain=job.explain,
            )
        out_circuit = result.circuit
        check_circuit(out_circuit)
        timings = dict(result.timings)
        timings["total"] = sum(timings.values())
        metrics = {
            "baseline": _measure(circuit, model),
            "final": {**_measure(out_circuit, model), "accepted": True},
            "retime": _retime_metrics(result),
            "timings": timings,
        }
        if eco_info is not None:
            metrics["eco"] = eco_info
        if result.explanation is not None:
            metrics["explain"] = _explain_metrics(result.explanation)
    elif job.flow == "baseline":
        flow = baseline_flow(circuit, model)
        out_circuit = flow.circuit
        metrics = _flow_metrics(flow)
        metrics["baseline"] = metrics["final"]
    elif job.flow == "retime":
        base = baseline_flow(circuit, model)
        flow = retime_flow(
            circuit,
            model,
            objective=job.objective,
            mapped=base,
            target_period=job.target_period,
            semantic_classes=job.semantic_classes,
            explain=job.explain,
        )
        out_circuit = flow.circuit
        metrics = _flow_metrics(flow)
        metrics["baseline"] = {
            "n_ff": base.n_ff,
            "n_lut": base.n_lut,
            "delay": base.delay,
            "has_async": base.has_async,
            "has_enable": base.has_enable,
        }
    else:  # decomposed_enable
        flow = decomposed_enable_flow(
            circuit,
            model,
            objective=job.objective,
            target_period=job.target_period,
            semantic_classes=job.semantic_classes,
            explain=job.explain,
        )
        out_circuit = flow.circuit
        metrics = _flow_metrics(flow)

    metrics["_circuit"] = out_circuit
    return metrics
