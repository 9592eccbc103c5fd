"""The paper's synthesis scripts as composable flows (Sec. 6).

Every retime request runs one skeleton (:func:`run_flow` is its entry
point for the CLI and the service worker):

1. optionally derive the netlist retiming starts from (EN
   decomposition, optimise + map to 4-LUTs);
2. optionally apply a throughput transform (:mod:`repro.pipeline`):
   pipeline K output register layers, or C-slow by C (with a ``premap``
   of the fold gates when the flow is mapped);
3. retime with ``mc_retime``, or with ``eco_retime`` when the request
   names an ECO base;
4. when mapped: bind don't-care async reset values, remap, and keep the
   better netlist under STA;
5. with ``verify=True``, check every leg the flow ran, each with its own
   checker: input -> derived netlist with ``check_sequential``, derived
   netlist -> output with ``check_sequential``, ``check_pipeline`` or
   ``check_cslow``;
6. measure.

The public flows mirror the experimental setups:

* :func:`baseline_flow` — "minimal area for best delay" script:
  legalise registers for the XC4000E (decompose SS/SC), optimise, map
  to 4-LUTs, STA.  Produces Table 1 rows.
* :func:`retime_flow` — the modified script with the ``retime`` command
  inserted after mapping and a ``remap`` of the combinational part
  afterwards.  Produces Table 2 rows.
* :func:`decomposed_enable_flow` — the Table 3 script: a command that
  decomposes the load enables of all registers is prepended, then the
  retime flow runs (mc-retiming still handles the remaining AS/AC
  classes).
* :func:`pipeline_flow` / :func:`cslow_flow` — the throughput flows:
  map, transform, retime, remap; verified by the latency-shifted
  (:func:`repro.verify.check_pipeline`) or thread-interleaving
  (:func:`repro.verify.check_cslow`) refinement check.

Stage timings come from :mod:`repro.obs` spans (``flow.*``), so a
traced run shows the flow stages as the top level of the span tree;
``timings["total"]`` remains the sum of the stage entries.  The
unmapped flow reports the engine's own stages in place of one
``retime`` entry.

Flows never mutate their input circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .. import obs
from ..eco import EcoResult, EcoState, eco_retime
from ..lru import LRU
from ..mcretime import MCRetimeResult, mc_retime
from ..netlist import (
    Circuit,
    check_circuit,
    circuit_stats,
    class_histogram,
    read_blif,
)
from ..obs import StageClock
from ..opt import optimize
from ..pipeline import cslow_transform, insert_pipeline_layers
from ..techmap import XC4000E_ARCH, decompose_enables, map_luts, remap
from ..timing import UNIT_DELAY, XC4000E_DELAY, analyze
from ..timing.delay_models import DelayModel
from ..verify import (
    CheckResult,
    VerificationError,
    check_cslow,
    check_pipeline,
    check_sequential,
)

#: the ``flow`` names :func:`run_flow` accepts: ``mcretime`` retimes the
#: netlist as-is; the others are the paper's Table 1/2/3 scripts
FLOWS = ("mcretime", "baseline", "retime", "decomposed_enable")

#: the throughput transforms (``docs/PIPELINE.md``)
TRANSFORMS = ("pipeline", "cslow")


@dataclass
class FlowResult:
    """A flow's output design plus the table metrics."""

    circuit: Circuit
    n_ff: int
    n_lut: int
    #: STA delay of :attr:`circuit` (the tables' Delay column)
    delay: float
    has_async: bool
    has_enable: bool
    #: present when the flow ran retiming
    retime: MCRetimeResult | None = None
    #: wall-clock seconds per stage; ``timings["total"]`` is always
    #: present and equals the sum of the individual stage timings
    timings: dict[str, float] = field(default_factory=dict)
    #: False when retiming ran but was rejected as unprofitable (the
    #: graph-model optimum regressed under full STA, so the flow kept
    #: the pre-retiming netlist)
    accepted: bool = True
    #: refinement check of the leg that produced :attr:`circuit`, when
    #: the flow ran with ``verify=True`` (sequential, latency-shifted or
    #: thread-interleaving depending on the flow)
    verify: CheckResult | None = None
    #: throughput-transform report (kind, configuration, period
    #: economics, register-class histograms) for the pipeline / C-slow
    #: flows; ``None`` for the paper's table flows
    transform: dict | None = None
    #: how the incremental path answered a run given an ECO base (plan,
    #: diff, dirty fraction, fallback reason); ``None`` elsewhere
    eco: EcoResult | None = None
    #: certificate-backed explanation of the retiming result
    #: (:mod:`repro.obs.explain`, schema ``repro.explain/1``) when the
    #: flow ran with ``explain=True``; ``None`` elsewhere
    explain: dict | None = None
    #: the netlist retiming started from, before any transform: the
    #: mapped design of the XC4000E flows (its ``verify`` checks the
    #: mapping leg when the flow mapped it), the input itself for the
    #: unmapped flow; ``None`` for :func:`baseline_flow`
    base: FlowResult | None = None

    def summary(self) -> dict[str, object]:
        """The tables' numbers for :attr:`circuit`."""
        return {
            "n_ff": self.n_ff,
            "n_lut": self.n_lut,
            "n_gates": len(self.circuit.gates),
            "delay": self.delay,
            "has_async": self.has_async,
            "has_enable": self.has_enable,
            "accepted": self.accepted,
        }

    def metrics(self) -> dict[str, object]:
        """JSON-ready metrics: what a served job returns as
        ``JobResult.metrics`` and what the paper tables' rows read."""
        metrics: dict[str, object] = {
            "final": self.summary(),
            "baseline": (self.base or self).summary(),
            "timings": dict(self.timings),
        }
        result = self.retime
        if result is not None:
            fractions = result.timing_fractions()
            metrics["retime"] = {
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
        if self.transform is not None:
            metrics["transform"] = self.transform
        if self.verify is not None:
            metrics["verify"] = {
                "equivalent": self.verify.equivalent,
                "cycles": self.verify.cycles,
                "lanes": self.verify.lanes,
                "seconds": self.timings["verify"],
            }
        if self.eco is not None:
            metrics["eco"] = {
                "plan": self.eco.plan,
                "dirty_fraction": self.eco.dirty_fraction,
                "fallback_reason": self.eco.fallback_reason,
                "patched_entries": self.eco.patched_entries,
            }
        if self.explain is not None:
            from ..obs.explain import summary_metrics

            metrics["explain"] = {
                "summary": summary_metrics(self.explain),
                "explanation": self.explain,
            }
        return metrics


def measure(circuit: Circuit, model: DelayModel, **fields) -> FlowResult:
    """*circuit* as it stands, with the tables' metrics under *model*."""
    stats = circuit_stats(circuit)
    return FlowResult(
        circuit=circuit,
        n_ff=stats.n_ff,
        n_lut=stats.n_lut,
        delay=analyze(circuit, model).max_delay,
        has_async=stats.has_async,
        has_enable=stats.has_enable,
        **fields,
    )


def _verified(
    clock: StageClock,
    cycles: int,
    check,
    original: Circuit,
    transformed: Circuit,
    *args,
    **kwargs,
) -> CheckResult:
    """Run one leg's refinement check as a timed ``verify`` stage;
    raises :class:`VerificationError` on a mismatch."""
    with clock.stage("verify", "flow.verify", cycles=cycles):
        result = check(original, transformed, *args, cycles=cycles, **kwargs)
    if not result.equivalent:
        raise VerificationError(result)
    return result


#: ECO states by (base fingerprint, delay model, semantic classes): one
#: per base design this process has retimed edits of.  The service's
#: shard ring routes every job on one base to one worker, so repeated
#: edits of a base find its solver prefix and solve cache here.
_ECO_STATES: "LRU[tuple, EcoState]" = LRU(4)


def _eco_state(
    base_key: str | None,
    base_netlist: str | None,
    model: DelayModel,
    semantic_classes: bool,
) -> EcoState | None:
    """The :class:`EcoState` of an ECO base; ``None`` when the base text
    is absent or unparsable (the flow then retimes cold)."""
    if base_key is None or base_netlist is None:
        return None
    key = (base_key, model, semantic_classes)
    state = _ECO_STATES.get(key)
    if state is None:
        try:
            base = read_blif(base_netlist)
            check_circuit(base)
        except Exception:  # noqa: BLE001 - degrade to cold, never fail
            obs.count("eco.base_parse_error")
            return None
        state = EcoState(
            base, delay_model=model, semantic_classes=semantic_classes
        )
        _ECO_STATES.put(key, state)
    return state


def run_flow(
    circuit: Circuit,
    flow: str = "mcretime",
    *,
    objective: str = "minarea",
    delay_model: DelayModel | None = None,
    target_period: float | None = None,
    semantic_classes: bool = True,
    verify: bool = False,
    verify_cycles: int = 64,
    explain: bool = False,
    transform: str | None = None,
    stages: int = 1,
    factor: int = 2,
    base_key: str | None = None,
    base_netlist: str | None = None,
) -> FlowResult:
    """Run one retime request (the options of a ``RetimeJob``).

    *flow* is one of :data:`FLOWS`; the mapped flows default to the
    XC4000E delay model, ``mcretime`` to the unit model.  *transform*
    (``"pipeline"`` with *stages*, ``"cslow"`` with *factor*) runs
    between deriving the start netlist and retiming.  An ECO base
    (*base_key* plus the base's canonical BLIF *base_netlist*) makes a
    plain ``mcretime`` run retime incrementally against that base:
    bit-identical to the cold solve, only faster.  ``verify=True``
    checks every leg the flow ran and raises
    :class:`VerificationError` on a mismatch.
    """
    if flow not in FLOWS:
        raise ValueError(f"unknown flow {flow!r}; choose from {FLOWS}")
    if transform is not None and (
        transform not in TRANSFORMS or flow == "baseline"
    ):
        raise ValueError(f"flow {flow!r} cannot run transform {transform!r}")
    mapped = flow != "mcretime"
    model = delay_model or (XC4000E_DELAY if mapped else UNIT_DELAY)
    if flow == "baseline":
        return baseline_flow(
            circuit, model, verify=verify, verify_cycles=verify_cycles
        )
    eco = None
    # the warm path reuses a prior solve of the untransformed design and
    # never rebuilds the certificate inputs, so explain requests and
    # transforms take the cold path
    if not mapped and transform is None and not explain:
        eco = _eco_state(base_key, base_netlist, model, semantic_classes)
    return _flow(
        circuit,
        model,
        mapped=mapped,
        decompose=flow == "decomposed_enable",
        transform=transform,
        stages=stages,
        factor=factor,
        objective=objective,
        target_period=target_period,
        semantic_classes=semantic_classes,
        verify=verify,
        verify_cycles=verify_cycles,
        explain=explain,
        eco=eco,
    )


def _flow(
    circuit: Circuit,
    model: DelayModel,
    *,
    mapped: bool,
    base: FlowResult | None = None,
    decompose: bool = False,
    transform: str | None = None,
    stages: int = 0,
    factor: int = 1,
    objective: str,
    target_period: float | None,
    semantic_classes: bool,
    verify: bool,
    verify_cycles: int,
    explain: bool,
    eco: EcoState | None = None,
) -> FlowResult:
    """The skeleton every retime request runs (module docstring).

    A given *base* (a mapped :class:`FlowResult`) skips step 1; its
    own leg is then the caller's to check.
    """
    # 1. the netlist retiming starts from
    derived = base is None and mapped
    clock = StageClock()
    if derived:
        start = circuit
        if decompose:
            start = circuit.clone()
            with clock.stage("decompose_en", "flow.decompose_en"):
                decompose_enables(start)
        base = baseline_flow(start, model)
    elif base is None:
        base = measure(circuit, model)
    # the base's own stages lead the flow's
    clock = StageClock(seed={**clock.timings, **base.timings})

    # 2. the throughput transform
    work = base.circuit
    if transform == "pipeline":
        with clock.stage("pipeline", "flow.pipeline", stages=stages):
            work, inserted = insert_pipeline_layers(work, stages)
    elif transform == "cslow":
        with clock.stage("cslow", "flow.cslow", factor=factor):
            work, counts = cslow_transform(work, factor)
        if mapped:
            with clock.stage("premap", "flow.premap"):
                # fold gates (MUX/OR/AND/NOT) are primitives: remap
                # before retiming so the delay model sees LUTs only
                work = remap(
                    work, delay_model=model, keep_better=False
                ).circuit
                XC4000E_ARCH.check_mapped(work)

    # 3. retime; the unmapped flow reports the engine's own stages in
    # place of one retime entry (served jobs and their traces read them)
    stage = (
        clock.stage("retime", "flow.retime", objective=objective)
        if mapped else obs.span("flow.retime", objective=objective)
    )
    with stage:
        if eco is not None:
            eco_result = eco_retime(
                eco, work, target_period=target_period, objective=objective
            )
            result = eco_result.result
        else:
            eco_result = None
            result = mc_retime(
                work,
                delay_model=model,
                objective=objective,
                target_period=target_period,
                semantic_classes=semantic_classes,
                explain=explain,
            )
    if not mapped:
        clock.timings.update(result.timings)

    # 4. remap, keeping the better netlist
    accepted = True
    if mapped:
        with clock.stage("remap", "flow.remap"):
            XC4000E_ARCH.bind_async_resets(result.circuit)
            final = remap(result.circuit, delay_model=model).circuit
            XC4000E_ARCH.check_mapped(final)
        out = measure(final, model)
        # the retiming optimum is exact on the graph model but full STA
        # adds clock-to-Q, setup and fanout-dependent wire terms; on rare
        # small designs that mismatch turns the "improvement" into a
        # regression — a production flow keeps the better netlist (a
        # transformed netlist has no equivalent to fall back to)
        if transform is None and out.delay > base.delay + 1e-9:
            out, accepted = base, False
    else:
        out = measure(result.circuit, model)

    # 5. check every leg the flow ran; a rejected retiming checks the
    # kept netlist against itself, so verify=True always gets a verdict
    check = None
    if verify:
        if derived:
            base.verify = _verified(
                clock, verify_cycles, check_sequential, circuit, base.circuit
            )
        if transform == "pipeline":
            check = _verified(
                clock, verify_cycles, check_pipeline, base.circuit,
                out.circuit, shift=stages,
            )
        elif transform == "cslow":
            check = _verified(
                clock, verify_cycles, check_cslow, base.circuit,
                out.circuit, factor,
            )
        else:
            check = _verified(
                clock, verify_cycles, check_sequential, base.circuit,
                out.circuit,
            )

    # 6. the transform's economics
    report = None
    gain = base.delay / max(out.delay, 1e-12)
    if transform == "pipeline":
        lower_bound = base.delay / (stages + 1)
        balance_slack = out.delay - lower_bound
        obs.gauge("pipeline.balance_slack", balance_slack)
        report = {
            "kind": "pipeline",
            "stages": stages,
            "registers_inserted": inserted,
            "period_before": base.delay,
            "period_after": out.delay,
            "lower_bound": lower_bound,
            "balance_slack": balance_slack,
            "speedup": gain,
        }
    elif transform == "cslow":
        report = {
            "kind": "cslow",
            "factor": factor,
            **counts,
            "period_before": base.delay,
            "period_after": out.delay,
            "thread_period": factor * out.delay,
            "throughput_gain": gain,
        }
    if report is not None:
        report["classes_before"] = class_histogram(base.circuit)
        report["classes_after"] = class_histogram(out.circuit)
    return replace(
        out,
        retime=result,
        timings=clock.done(),
        accepted=accepted,
        verify=check,
        transform=report,
        eco=eco_result,
        explain=result.explanation,
        base=base,
    )


def baseline_flow(
    circuit: Circuit,
    delay_model: DelayModel = XC4000E_DELAY,
    mapping_mode: str = "depth",
    verify: bool = False,
    verify_cycles: int = 64,
) -> FlowResult:
    """Optimise + map (Table 1 setup).

    ``mapping_mode="depth"`` is the paper's *minimal area for best
    delay* script; ``"area"`` the plain *minimal area* script (the
    system provides both, Sec. 6).  ``verify=True`` appends a timed
    ``verify`` stage that sequentially checks the mapped netlist
    against the input and raises :class:`VerificationError` on a
    mismatch.
    """
    clock = StageClock()
    work = circuit.clone()
    with clock.stage("optimize", "flow.optimize"):
        # decompose SS/SC and bind don't-care resets: on-chip FFs have
        # neither
        XC4000E_ARCH.prepare(work)
        optimize(work)
    with clock.stage("map", "flow.map", mode=mapping_mode):
        mapped = map_luts(work, mode=mapping_mode).circuit
        XC4000E_ARCH.check_mapped(mapped)
    check = None
    if verify:
        check = _verified(
            clock, verify_cycles, check_sequential, circuit, mapped
        )
    return measure(mapped, delay_model, timings=clock.done(), verify=check)


def retime_flow(
    circuit: Circuit,
    delay_model: DelayModel = XC4000E_DELAY,
    objective: str = "minarea",
    mapped: FlowResult | None = None,
    target_period: float | None = None,
    semantic_classes: bool = True,
    verify: bool = False,
    verify_cycles: int = 64,
    explain: bool = False,
) -> FlowResult:
    """Baseline flow + ``retime`` + ``remap`` (Table 2 setup).

    Retiming runs on the *mapped* netlist so gate delays are as close as
    possible to the actual FPGA delays, exactly as the paper argues.
    Pass a precomputed ``mapped`` result to skip re-running the baseline.
    ``verify=True`` appends timed ``verify`` stages that sequentially
    check the mapped design against the input (unless ``mapped`` was
    given) and the final netlist against the mapped design, raising
    :class:`VerificationError` on a mismatch.  ``explain=True``
    attaches the certificate-backed explanation of the retiming under
    ``result.explain`` (see :mod:`repro.obs.explain`).
    """
    return _flow(
        circuit,
        delay_model,
        mapped=True,
        base=mapped,
        objective=objective,
        target_period=target_period,
        semantic_classes=semantic_classes,
        verify=verify,
        verify_cycles=verify_cycles,
        explain=explain,
    )


def decomposed_enable_flow(
    circuit: Circuit,
    delay_model: DelayModel = XC4000E_DELAY,
    objective: str = "minarea",
    target_period: float | None = None,
    semantic_classes: bool = True,
    verify: bool = False,
    verify_cycles: int = 64,
    explain: bool = False,
) -> FlowResult:
    """Decompose load enables first, then the retime flow (Table 3).

    With EN folded into D-side multiplexers, those registers become
    plain flip-flops and retiming moves them without class restrictions
    from enables — the paper's comparison point showing why preserving
    enables matters.
    """
    return _flow(
        circuit,
        delay_model,
        mapped=True,
        decompose=True,
        objective=objective,
        target_period=target_period,
        semantic_classes=semantic_classes,
        verify=verify,
        verify_cycles=verify_cycles,
        explain=explain,
    )


def pipeline_flow(
    circuit: Circuit,
    stages: int,
    delay_model: DelayModel = XC4000E_DELAY,
    objective: str = "minperiod",
    mapped: FlowResult | None = None,
    target_period: float | None = None,
    semantic_classes: bool = True,
    verify: bool = False,
    verify_cycles: int = 48,
    explain: bool = False,
) -> FlowResult:
    """Baseline flow + K output register layers + retime + remap.

    Pipelining trades latency (the outputs shift by *stages* cycles)
    for clock speed: min-period retiming pulls the inserted plain
    registers back through the output cones.  The ``transform`` report
    compares the achieved period against the ``P0 / (K+1)`` perfect-
    balance lower bound.  ``verify=True`` appends a timed stage running
    the latency-shifted refinement check against the mapped base (and
    the mapping leg's sequential check unless ``mapped`` was given) and
    raises :class:`VerificationError` on a mismatch.
    """
    return _flow(
        circuit,
        delay_model,
        mapped=True,
        base=mapped,
        transform="pipeline",
        stages=stages,
        objective=objective,
        target_period=target_period,
        semantic_classes=semantic_classes,
        verify=verify,
        verify_cycles=verify_cycles,
        explain=explain,
    )


def cslow_flow(
    circuit: Circuit,
    factor: int,
    delay_model: DelayModel = XC4000E_DELAY,
    objective: str = "minperiod",
    mapped: FlowResult | None = None,
    target_period: float | None = None,
    semantic_classes: bool = True,
    verify: bool = False,
    verify_cycles: int = 32,
    explain: bool = False,
) -> FlowResult:
    """Baseline flow + C-slow + remap + retime + remap.

    C-slow turns the design into a C-thread interleaved machine: every
    register becomes a chain of C plain replicas (EN/SR/AR folded into
    the D path per class), and retiming spreads the chains through the
    logic.  The fold gates are primitives, so a ``premap`` stage remaps
    them to LUTs before retiming.  The ``transform`` report gives the
    aggregate throughput gain ``P0 / P1`` and the per-thread period
    ``C * P1``.  ``verify=True`` appends a timed stage running the
    thread-interleaving refinement check against the mapped base (and
    the mapping leg's sequential check unless ``mapped`` was given) and
    raises :class:`VerificationError` on a mismatch.
    """
    return _flow(
        circuit,
        delay_model,
        mapped=True,
        base=mapped,
        transform="cslow",
        factor=factor,
        objective=objective,
        target_period=target_period,
        semantic_classes=semantic_classes,
        verify=verify,
        verify_cycles=verify_cycles,
        explain=explain,
    )
