"""Engine-level pipelining and C-slow retiming.

:func:`pipeline_retime` and :func:`cslow_retime` pair one netlist
transform from :mod:`repro.pipeline.transform` with a multiple-class
retiming pass that redistributes the inserted registers, and report the
throughput economics:

* pipelining — achieved period vs. the ``P0 / (K+1)`` lower bound a
  K-stage pipeline could reach if the logic sliced perfectly (the
  remainder is ``balance_slack``, also published as the
  ``pipeline.balance_slack`` gauge);
* C-slow — the aggregate throughput gain ``P0 / P1`` (one thread-step
  completes per clock) and the per-thread cost: effective period
  ``C * P1`` and C-fold latency.

Both are non-destructive and degenerate exactly to ``mc_retime`` at
``stages=0`` / ``factor=1`` (same arguments, byte-identical output
netlist) so the trivial configurations cannot drift from the plain
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..mcretime import MCRetimeResult, mc_retime
from ..netlist import Circuit
from ..netlist.stats import class_histogram
from ..obs import StageClock
from ..timing import UNIT_DELAY, analyze
from ..timing.delay_models import DelayModel
from .transform import cslow_transform, insert_pipeline_layers


@dataclass
class PipelineResult:
    """Outcome of :func:`pipeline_retime`."""

    circuit: Circuit
    stages: int
    retime: MCRetimeResult
    registers_inserted: int
    #: STA period of the input / output netlists
    period_before: float
    period_after: float
    #: ``period_before / (stages + 1)`` — the perfect-balance bound
    lower_bound: float
    #: ``period_after - lower_bound``
    balance_slack: float
    ff_before: int
    ff_after: int
    #: register-class composition before/after (shape label -> count)
    classes_before: dict[str, int] = field(default_factory=dict)
    classes_after: dict[str, int] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.period_before / max(self.period_after, 1e-12)

    def report(self) -> dict[str, object]:
        """The transform economics as served (``metrics["transform"]``)."""
        return {
            "kind": "pipeline",
            "stages": self.stages,
            "registers_inserted": self.registers_inserted,
            "period_before": self.period_before,
            "period_after": self.period_after,
            "lower_bound": self.lower_bound,
            "balance_slack": self.balance_slack,
            "speedup": self.speedup,
            "classes_before": self.classes_before,
            "classes_after": self.classes_after,
        }


@dataclass
class CSlowResult:
    """Outcome of :func:`cslow_retime`."""

    circuit: Circuit
    factor: int
    retime: MCRetimeResult
    #: replica registers added / EN, SR, AR decompositions performed
    registers_replicated: int
    enables_folded: int
    sync_resets_folded: int
    async_resets_folded: int
    #: STA period of the input / output netlists (clock rate)
    period_before: float
    period_after: float
    #: per-thread effective period: ``factor * period_after``
    thread_period: float
    ff_before: int
    ff_after: int
    classes_before: dict[str, int] = field(default_factory=dict)
    classes_after: dict[str, int] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def throughput_gain(self) -> float:
        """Aggregate throughput multiplier: thread-steps per second of
        the C-slowed machine over the original (``P0 / P1``)."""
        return self.period_before / max(self.period_after, 1e-12)

    @property
    def thread_slowdown(self) -> float:
        """Per-thread latency multiplier (``C * P1 / P0``)."""
        return self.thread_period / max(self.period_before, 1e-12)

    def report(self) -> dict[str, object]:
        """The transform economics as served (``metrics["transform"]``)."""
        return {
            "kind": "cslow",
            "factor": self.factor,
            "registers_replicated": self.registers_replicated,
            "enables_folded": self.enables_folded,
            "sync_resets_folded": self.sync_resets_folded,
            "async_resets_folded": self.async_resets_folded,
            "period_before": self.period_before,
            "period_after": self.period_after,
            "thread_period": self.thread_period,
            "throughput_gain": self.throughput_gain,
            "classes_before": self.classes_before,
            "classes_after": self.classes_after,
        }


def pipeline_retime(
    circuit: Circuit,
    stages: int,
    delay_model: DelayModel = UNIT_DELAY,
    objective: str = "minperiod",
    target_period: float | None = None,
    semantic_classes: bool = True,
    explain: bool = False,
) -> PipelineResult:
    """Insert *stages* output register layers, then mc-retime to
    balance them (``objective="minperiod"`` by default — balancing is
    the point of pipelining).  ``stages=0`` runs ``mc_retime`` on the
    input directly.  ``explain=True`` attaches the retiming engine's
    certificate-backed explanation under ``result.retime.explanation``
    (the explanation covers the post-transform work graph)."""
    clock = StageClock()
    period_before = analyze(circuit, delay_model).max_delay
    ff_before = len(circuit.registers)
    classes_before = class_histogram(circuit)
    if stages == 0:
        work, inserted = circuit, 0
    else:
        with clock.stage("insert", "pipeline.transform", stages=stages):
            work, inserted = insert_pipeline_layers(circuit, stages)
    with clock.stage("retime", "pipeline.retime", stages=stages):
        result = mc_retime(
            work,
            delay_model=delay_model,
            target_period=target_period,
            objective=objective,
            semantic_classes=semantic_classes,
            explain=explain,
        )
    period_after = analyze(result.circuit, delay_model).max_delay
    lower_bound = period_before / (stages + 1)
    balance_slack = period_after - lower_bound
    obs.gauge("pipeline.balance_slack", balance_slack)
    return PipelineResult(
        circuit=result.circuit,
        stages=stages,
        retime=result,
        registers_inserted=inserted,
        period_before=period_before,
        period_after=period_after,
        lower_bound=lower_bound,
        balance_slack=balance_slack,
        ff_before=ff_before,
        ff_after=len(result.circuit.registers),
        classes_before=classes_before,
        classes_after=class_histogram(result.circuit),
        timings=clock.done(),
    )


def cslow_retime(
    circuit: Circuit,
    factor: int,
    delay_model: DelayModel = UNIT_DELAY,
    objective: str = "minperiod",
    target_period: float | None = None,
    semantic_classes: bool = True,
    explain: bool = False,
) -> CSlowResult:
    """C-slow by *factor*, then mc-retime to spread the replica chains
    through the logic.  ``factor=1`` runs ``mc_retime`` on the input
    directly.  ``explain=True`` rides through to the engine; see
    :func:`pipeline_retime`."""
    clock = StageClock()
    period_before = analyze(circuit, delay_model).max_delay
    ff_before = len(circuit.registers)
    classes_before = class_histogram(circuit)
    if factor == 1:
        work = circuit
        counts = {
            "registers_replicated": 0,
            "enables_folded": 0,
            "sync_resets_folded": 0,
            "async_resets_folded": 0,
        }
    else:
        with clock.stage("replicate", "cslow.transform", factor=factor):
            work, counts = cslow_transform(circuit, factor)
    with clock.stage("retime", "cslow.retime", factor=factor):
        result = mc_retime(
            work,
            delay_model=delay_model,
            target_period=target_period,
            objective=objective,
            semantic_classes=semantic_classes,
            explain=explain,
        )
    period_after = analyze(result.circuit, delay_model).max_delay
    return CSlowResult(
        circuit=result.circuit,
        factor=factor,
        retime=result,
        registers_replicated=counts["registers_replicated"],
        enables_folded=counts["enables_folded"],
        sync_resets_folded=counts["sync_resets_folded"],
        async_resets_folded=counts["async_resets_folded"],
        period_before=period_before,
        period_after=period_after,
        thread_period=factor * period_after,
        ff_before=ff_before,
        ff_after=len(result.circuit.registers),
        classes_before=classes_before,
        classes_after=class_histogram(result.circuit),
        timings=clock.done(),
    )
