"""The multiple-class retiming engine: the paper's six-step flow (Sec. 5).

1. build the mc-graph from the circuit;
2. derive the mc-retiming bounds by maximal backward/forward retiming;
3. modify the graph for multiple-class register sharing (separation
   vertices, Eq. 3);
4. minimum-period retiming subject to the bounds → φ_min;
5. minimum-area retiming at φ_min (min-cost flow);
6. relocate the registers, computing equivalent reset states; on an
   unresolvable justification conflict, clamp ``r_max^mc`` at the
   offending vertex and repeat from step 4.

Each phase is wall-clock timed so the Sec. 6 CPU-split claims
(≈90 % basic retiming / 7 % relocation / 3 % mc bookkeeping) can be
reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..graph.build import build_mcgraph
from ..logic.simulate import eval_nets
from ..logic.ternary import TX
from ..netlist import Circuit
from ..retime.constraints import InfeasibleConstraints
from ..kernels import compile_graph, delta_sweep
from ..retime.minarea import min_area
from ..retime.minperiod import base_system, check_period, min_period
from .bounds import compute_bounds
from .classes import Classifier
from .relocate import (
    JustificationConflict,
    RelocationDeadlock,
    RelocationError,
    RelocationResult,
    relocate,
)
from .reset import JustificationStats
from ..timing.delay_models import DelayModel, UNIT_DELAY
from .sharing import apply_sharing_transform


@dataclass
class MCRetimeResult:
    """Everything the paper's Table 2 row needs (plus diagnostics)."""

    circuit: Circuit
    r: dict[str, int]
    n_classes: int
    #: layers actually moved (paper #Step, first number)
    steps_moved: int
    #: valid mc-steps available (paper #Step, second number)
    steps_possible: int
    #: graph clock period before / after (delay-model units)
    period_before: float
    period_after: float
    #: circuit register count before / after
    ff_before: int
    ff_after: int
    stats: JustificationStats
    timings: dict[str, float] = field(default_factory=dict)
    #: how many times a conflict forced a retiming re-solve
    resolve_attempts: int = 0
    #: achieved min-area register objective (shared model)
    area_registers: int | None = None
    #: certificate-backed explanation (schema ``repro.explain/1``) when
    #: the run was made with ``explain=True``; see :mod:`repro.obs.explain`
    explanation: dict | None = None

    def timing_fractions(self) -> dict[str, float]:
        """Phase shares of total runtime (paper Sec. 6 prose)."""
        total = sum(self.timings.values()) or 1.0
        basic = self.timings.get("minperiod", 0.0) + self.timings.get(
            "minarea", 0.0
        )
        mc_overhead = (
            self.timings.get("build", 0.0)
            + self.timings.get("bounds", 0.0)
            + self.timings.get("sharing", 0.0)
        )
        return {
            "basic_retiming": basic / total,
            "relocation": self.timings.get("relocate", 0.0) / total,
            "mc_overhead": mc_overhead / total,
        }


@dataclass
class SolvedRetiming:
    """Steps 4–6 of one run: the solved and relocated retiming."""

    #: solver retiming over the work-graph vertices
    r: dict[str, int]
    #: its restriction to the circuit's gates
    gate_r: dict[str, int]
    phi: float
    #: achieved min-area register objective (None for ``minperiod``)
    area_registers: int | None
    reloc: RelocationResult
    stats: JustificationStats
    #: how many times a conflict forced a retiming re-solve
    attempts: int


def solve_and_relocate(
    circuit: Circuit,
    classifier: Classifier,
    work_graph,
    work_bounds: dict[str, tuple[int, int]],
    target_period: float | None,
    objective: str,
    max_conflict_resolves: int,
    timings: dict[str, float],
) -> SolvedRetiming:
    """Steps 4–6 over a sharing-transformed *work_graph*.

    Min-period, then min-area (or the min-period retiming itself), then
    relocation; on an unresolvable justification conflict or a
    relocation deadlock the offending bounds in *work_bounds* are
    clamped in place and the loop re-solves.  Phase times accumulate
    into *timings*.  Both the cold :func:`mc_retime` and the ECO warm
    solve run this loop; it calls ``min_period``, ``min_area`` and
    ``relocate`` through this module's globals.
    """
    stats = JustificationStats()
    attempts = 0
    timings.setdefault("minperiod", 0.0)
    timings.setdefault("minarea", 0.0)
    timings.setdefault("relocate", 0.0)

    while True:
        with obs.timed("engine.minperiod", attempt=attempts) as sp:
            if target_period is None:
                mp = min_period(work_graph, work_bounds)
                phi = mp.phi
            else:
                phi = target_period
        timings["minperiod"] += sp.duration

        with obs.timed("engine.minarea", phi=phi) as sp:
            if objective == "minarea":
                area = min_area(work_graph, phi, work_bounds)
                r = area.r
                area_registers = area.registers
            elif objective == "minperiod":
                if target_period is None:
                    r = mp.r
                else:
                    system = base_system(work_graph, work_bounds)
                    r = check_period(work_graph, phi, system).r
                    if r is None:
                        raise InfeasibleConstraints(
                            f"target period {phi} infeasible for "
                            f"{circuit.name!r}",
                            system.negative_cycle() or (),
                            period=phi,
                        )
                area_registers = None
            else:
                raise ValueError(f"unknown objective {objective!r}")
        timings["minarea"] += sp.duration

        gate_r = {name: r.get(name, 0) for name in circuit.gates}

        try:
            with obs.timed("engine.relocate", attempt=attempts) as sp:
                reloc = relocate(circuit, gate_r, classifier)
            timings["relocate"] += sp.duration
            return SolvedRetiming(
                r, gate_r, phi, area_registers, reloc, stats, attempts
            )
        except JustificationConflict as conflict:
            timings["relocate"] += sp.duration
            obs.count("relocate.conflicts")
            stats.unresolvable += 1
            attempts += 1
            if attempts > max_conflict_resolves:
                raise RelocationError(
                    "too many unresolvable justification conflicts"
                ) from conflict
            lo, hi = work_bounds.get(conflict.gate, (0, 0))
            work_bounds[conflict.gate] = (lo, min(hi, conflict.moves_done))
        except RelocationDeadlock as deadlock:
            # the unit-move scheduler wedged (mixed-direction lags on a
            # multi-fanout net); clamp every stuck gate to the moves it
            # actually completed and re-solve — r=0 stays feasible, so
            # the tightened LP always has a solution
            timings["relocate"] += sp.duration
            obs.count("relocate.deadlocks")
            attempts += 1
            if attempts > max_conflict_resolves:
                raise
            for gate_name, remaining in deadlock.pending.items():
                lo, hi = work_bounds.get(gate_name, (0, 0))
                done = deadlock.done[gate_name]
                if remaining > 0:
                    work_bounds[gate_name] = (lo, min(hi, done))
                else:
                    work_bounds[gate_name] = (max(lo, done), hi)


def mc_retime(
    circuit: Circuit,
    delay_model: DelayModel = UNIT_DELAY,
    target_period: float | None = None,
    objective: str = "minarea",
    semantic_classes: bool = True,
    max_conflict_resolves: int = 25,
    verify_resets: bool = True,
    explain: bool = False,
) -> MCRetimeResult:
    """Run multiple-class retiming on *circuit* (non-destructive).

    Args:
        circuit: the mapped design to retime.
        delay_model: per-gate delays for the retiming graph.
        target_period: retime for this period instead of φ_min.
        objective: ``"minarea"`` (paper's min-area-for-best-delay when
            *target_period* is None) or ``"minperiod"`` (skip the area
            ILP and implement the min-period solution directly).
        semantic_classes: compare control signals by BDD equivalence
            (paper Def. 1) instead of by net name.
        max_conflict_resolves: bound on conflict-driven re-solves.
        verify_resets: double-check every recorded reset requirement by
            forward implication after relocation.
        explain: attach a certificate-backed explanation of the result
            (:mod:`repro.obs.explain`) under ``result.explanation``.
            Extraction is entirely post-hoc — the solving phases are
            untouched when this is off.

    Returns:
        :class:`MCRetimeResult`; ``result.circuit`` is a retimed clone.
    """
    timings: dict[str, float] = {}

    with obs.timed("engine.build", circuit=circuit.name) as sp:
        classifier = Classifier(circuit, semantic=semantic_classes)
        build = build_mcgraph(circuit, delay_model, classifier.classify)
        graph = build.graph
    timings["build"] = sp.duration

    with obs.timed("engine.bounds") as sp:
        bounds = compute_bounds(graph)
    timings["bounds"] = sp.duration

    with obs.timed("engine.sharing") as sp:
        transform = apply_sharing_transform(
            graph, bounds.bounds, bounds.backward_graph
        )
        work_graph = transform.graph
        work_bounds = dict(transform.bounds)
    timings["sharing"] = sp.duration

    # nothing below mutates `graph` (the solvers work on copies), so
    # one snapshot serves both period sweeps
    cg = compile_graph(graph)
    period_before = delta_sweep(cg, cg.r_array(None)).period
    solved = solve_and_relocate(
        circuit,
        classifier,
        work_graph,
        work_bounds,
        target_period,
        objective,
        max_conflict_resolves,
        timings,
    )
    r, phi, reloc = solved.r, solved.phi, solved.reloc

    if verify_resets:
        _verify_reset_requirements(reloc.circuit, reloc.requirements)

    explanation = None
    if explain:
        with obs.timed("engine.explain", circuit=circuit.name) as sp:
            from ..obs.explain import build_explanation

            explanation = build_explanation(
                work_graph,
                bounds,
                transform,
                work_bounds,
                r,
                phi,
                objective,
                target_period=target_period,
                design=circuit.name,
            )
        timings["explain"] = sp.duration

    result = MCRetimeResult(
        circuit=reloc.circuit,
        r=solved.gate_r,
        n_classes=classifier.n_classes,
        steps_moved=reloc.steps_moved,
        steps_possible=bounds.steps_possible,
        period_before=period_before,
        period_after=delta_sweep(cg, cg.r_array(r)).period,
        ff_before=len(circuit.registers),
        ff_after=len(reloc.circuit.registers),
        stats=solved.stats.merged(reloc.stats),
        timings=timings,
        resolve_attempts=solved.attempts,
        area_registers=solved.area_registers,
        explanation=explanation,
    )
    return result


def _verify_reset_requirements(
    circuit: Circuit, requirements: dict[str, frozenset]
) -> None:
    """Check every recorded reset requirement by forward implication.

    For each register created by a backward move, the flattened terminal
    requirements say which original register positions (nets) must still
    evaluate to which reset values.  Implicating the committed register
    values through the combinational logic (primary inputs unknown) must
    reproduce every binary requirement exactly; a mismatch means a
    justification was silently invalidated — a bug, so fail loudly.
    """
    items: set[tuple[str, int, int]] = set()
    for reqs in requirements.values():
        items |= reqs
    if not items:
        return
    for index, attr in ((1, "sval"), (2, "aval")):
        cut = {reg.q: getattr(reg, attr) for reg in circuit.registers.values()}
        values = eval_nets(circuit, cut)
        for item in items:
            net, required = item[0], item[index]
            if required == TX:
                continue
            got = values.get(net, TX)
            if got != required:
                raise RelocationError(
                    f"reset requirement violated at {net!r}: "
                    f"{attr} implies {got}, needs {required}"
                )
