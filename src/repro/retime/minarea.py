"""Minimum-area retiming for a target clock period (paper Sec. 5.1).

Solves the ILP

    min Σ c(v)·r(v)
    s.t. circuit constraints   r(u) − r(v) ≤ w(e)
         class constraints     via host edges (bounds)
         period constraints    r(u) − r(v) ≤ w(p) − 1  (lazily generated)

by min-cost flow on the LP dual: every difference constraint becomes a
flow arc u→v with cost = bound and infinite capacity; vertex supplies
are −c(v); the optimal retiming values are the negated node potentials.
Period constraints are produced lazily exactly as in min-period: solve,
sweep Δ on the retimed graph, add one constraint per violating path,
repeat until clean.

The loop runs on the compiled structures of :mod:`repro.kernels`: the
difference system solves incrementally between lazy rounds, the LP dual
runs on the integer-node flow kernel, and Δ sweeps run on the compiled
graph.  The LP usually has several optimal solutions; every round
returns the same canonical one, the componentwise-minimal non-negative
optimal r, host-normalised (:func:`canonical_r`), so the answer depends
neither on the flow algorithm nor on the order constraints were added
in.

The returned objective is the Leiserson–Saxe *shared* register count of
the retimed graph (mirror-vertex model), which for multi-class graphs
that went through the separation-vertex transform is the paper's
corrected sharing estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..graph.retiming_graph import RetimingGraph
from ..kernels import CompiledSystem, IntMinCostFlow, compile_graph, delta_sweep
from .constraints import InfeasibleConstraints, InfeasibleError
from .feas import clock_period
from .minperiod import MAX_LAZY_ROUNDS, _base_system, add_period_constraints
from .sharing_model import SharingModel, build_sharing_model, shared_register_count


@dataclass
class AreaResult:
    """Outcome of a min-area retiming run."""

    #: Optimal retiming values (host-normalised), real vertices only.
    r: dict[str, int]
    #: Modelled (shared) register count after retiming.
    registers: int
    #: Shared register count before retiming (same model), for deltas.
    registers_before: int
    #: Achieved clock period of the retimed graph.
    period: float
    #: Lazy-generation rounds used.
    rounds: int = 0
    #: Total constraints in the final system.
    constraints: int = 0


@dataclass
class AreaLoop:
    """Final state of the lazy min-area loop (:func:`lazy_min_area`)."""

    #: The final system: the base system (circuit, pin and class tags)
    #: plus every generated period constraint.
    system: CompiledSystem
    #: The last round's solved LP dual.
    flow: IntMinCostFlow
    #: Canonical optimal host-normalised retiming, indexed like
    #: ``system.names``.
    r: list[int]
    rounds: int


def lp_supply(csys: CompiledSystem, model: SharingModel) -> list[int]:
    """Flow supplies −c(v), indexed like *csys*'s variables."""
    supply = [0] * csys.n
    for name, c in model.cost.items():
        i = csys.index.get(name)
        if i is None:  # the LP would be unbounded
            raise InfeasibleError(f"cost on unconstrained vertex {name!r}")
        supply[i] = -c
    return supply


def solve_lp(
    csys: CompiledSystem, supply: list[int]
) -> tuple[list[int], IntMinCostFlow] | None:
    """One LP solve: min Σ c·r subject to *csys*; None if infeasible.

    Returns the canonical host-normalised optimum (:func:`canonical_r`)
    and the solved flow network.
    """
    dist = csys.solve()
    if dist is None:
        return None
    flow = IntMinCostFlow(csys.n)
    flow.supply = list(supply)
    add_arc = flow.add_arc
    arc_u, arc_v, arc_b = csys.arc_u, csys.arc_v, csys.arc_b
    for slot in range(len(arc_b)):
        add_arc(arc_u[slot], arc_v[slot], arc_b[slot])
    # π = −r0 gives non-negative reduced costs for every constraint arc
    flow.solve(initial_potentials=[-d for d in dist])
    return canonical_r(csys, flow), flow


def canonical_r(csys: CompiledSystem, flow: IntMinCostFlow) -> list[int]:
    """The minimal non-negative optimal r of a solved LP, host-normalised.

    By complementary slackness, the optimal duals of *any* optimal flow
    are exactly the potentials π with no negative reduced cost on its
    residual graph: π(v) − π(u) ≤ b for every constraint arc u→v of
    bound b, and π(u) − π(v) ≤ −b for every arc carrying flow.  That
    set does not depend on which optimal flow was found, and its
    maximal non-positive element — the difference-system solution
    Bellman-Ford computes — is unique.  r = −π.
    """
    dual = CompiledSystem(csys.names, csys.index)
    add = dual.add
    for u, v, b, f in flow.arcs():
        add(v, u, b)
        if f:
            add(u, v, -b)
    return csys.normalized([-p for p in dual.solve()])


def lazy_min_area(
    graph: RetimingGraph,
    phi: float,
    bounds: dict[str, tuple[int, int]] | None,
    model: SharingModel,
) -> AreaLoop:
    """The lazy LP loop over *model*'s extended graph.

    Raises :class:`~repro.retime.constraints.InfeasibleConstraints`
    with a negative-cycle certificate when *phi* is infeasible.
    """
    cg = compile_graph(model.graph)
    csys = _base_system(cg, bounds)
    supply = lp_supply(csys, model)
    n = cg.n
    for rounds in range(1, MAX_LAZY_ROUNDS + 1):
        with obs.span("minarea.lp", round=rounds):
            solved = solve_lp(csys, supply)
            if solved is None:
                raise InfeasibleConstraints(
                    f"period {phi} infeasible for {graph.name!r}",
                    csys.negative_cycle() or (),
                    period=phi,
                )
            r, flow = solved
            violations = csys.violated(r)
            if violations:  # numerical/duality bug guard: never expected
                names = csys.names
                shown = [(names[u], names[v], b) for u, v, b in violations[:3]]
                raise RuntimeError(f"LP solution violates {shown}")
        with obs.span("minarea.sweep", round=rounds):
            sweep = delta_sweep(cg, r[:n])
            added = add_period_constraints(cg, csys, sweep, r, phi)
        if not added:
            return AreaLoop(csys, flow, r, rounds)
    raise RuntimeError("lazy period-constraint generation did not converge")


def min_area(
    graph: RetimingGraph,
    phi: float,
    bounds: dict[str, tuple[int, int]] | None = None,
    model: SharingModel | None = None,
) -> AreaResult:
    """Minimum-area retiming achieving clock period ≤ *phi*.

    *model* is a prepared sharing model of *graph* (built when None).
    Raises :class:`InfeasibleError` if *phi* is not feasible for the
    graph under the given bounds.
    """
    if model is None:
        model = build_sharing_model(graph)
    with obs.span("minarea.solve", phi=phi) as span:
        loop = lazy_min_area(graph, phi, bounds, model)
        obs.count("minarea.rounds", loop.rounds)
        span.set(rounds=loop.rounds)

    index = loop.system.index
    real_r = {v: loop.r[index[v]] for v in graph.vertices}
    return AreaResult(
        r=real_r,
        registers=shared_register_count(graph, real_r),
        registers_before=shared_register_count(graph),
        period=clock_period(graph, real_r),
        rounds=loop.rounds,
        constraints=len(loop.system),
    )
