"""Minimum-period retiming under per-vertex bounds (paper Sec. 5.1).

Feasibility of a target period φ is decided by *lazy constraint
generation*: start from the circuit constraints, the pinned-I/O
constraints and the register-class bounds (all difference constraints
through the host, exactly as in the paper), solve, then sweep the
retimed graph for register-free paths longer than φ and add each as a
period constraint ``r(u) − r(v) ≤ w(p) − 1``.  Added constraints are
implied by the complete Leiserson–Saxe constraint set (every long path
must carry a register), so the fixed point is a true feasibility
answer; termination follows because each round strictly tightens some
vertex pair and bounds are integral.

The minimum φ is then found by binary search, shrinking the upper end
to the period actually *achieved* by each feasible solution (so the
search converges on an attainable value rather than an arbitrary
midpoint).

Both loops run on the compiled integer-indexed structures of
:mod:`repro.kernels`: the graph is compiled once per search and shared
by every probe; inside a feasibility check, rounds after the first
re-solve the difference system *incrementally* (only newly added
period constraints are relaxed, seeded from the previous solution) and
re-sweep Δ *incrementally* (only the cone of vertices the solve
actually moved); each feasible probe's achieved period is read off the
final sweep instead of re-deriving it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..graph.retiming_graph import HOST, RetimingGraph
from ..kernels import (
    CompiledGraph,
    CompiledSystem,
    KernelSweep,
    compile_graph,
    delta_sweep,
    refresh,
)
from .constraints import DifferenceSystem, InfeasibleConstraints

#: Float comparison slack for delays.
EPS = 1e-9

#: Safety valve on lazy-generation rounds.
MAX_LAZY_ROUNDS = 10_000


@dataclass
class FeasibilityResult:
    """Outcome of one lazy feasibility check."""

    r: dict[str, int] | None
    rounds: int = 0
    constraints: int = 0
    #: period achieved by ``r`` (read off the final sweep; None when
    #: infeasible) — saves the caller a redundant re-sweep
    achieved: float | None = None

    @property
    def feasible(self) -> bool:
        return self.r is not None


@dataclass
class MinPeriodResult:
    """Outcome of a minimum-period search."""

    phi: float
    r: dict[str, int]
    achieved: float
    probes: int = 0
    #: feasibility rounds accumulated over all probes
    rounds: int = 0


def base_system(
    graph: RetimingGraph,
    bounds: dict[str, tuple[int, int]] | None = None,
) -> DifferenceSystem:
    """Circuit constraints + pinned vertices + class bounds.

    Every non-movable vertex (host, ports, control outputs) is pinned to
    the host's value; *bounds* maps vertex -> (r_min, r_max) relative to
    the host, encoded as the two host difference constraints of paper
    Sec. 5.1.
    """
    system = DifferenceSystem(graph.vertices)
    for edge in graph.edges.values():
        system.add(edge.u, edge.v, edge.w, tag="circuit")
    for vertex in graph.vertices.values():
        if vertex.name == HOST:
            continue
        if not vertex.movable:
            system.add(vertex.name, HOST, 0, tag="pin")
            system.add(HOST, vertex.name, 0, tag="pin")
    for name, (lo, hi) in (bounds or {}).items():
        system.add(name, HOST, hi, tag="class")
        system.add(HOST, name, -lo, tag="class")
    return system


def _solve_normalized(system: DifferenceSystem) -> dict[str, int] | None:
    r = system.solve()
    if r is None:
        return None
    shift = r.get(HOST, 0)
    if shift:
        r = {v: val - shift for v, val in r.items()}
    return r


def _named(csys: CompiledSystem, r: list[int]) -> dict[str, int]:
    """Name-keyed view of a solution, in variable declaration order."""
    names = csys.names
    return {names[i]: r[i] for i in range(len(r))}


def _lazy_feasibility(
    cg: CompiledGraph, phi: float, csys: CompiledSystem
) -> tuple[list[int] | None, int, KernelSweep | None]:
    """Lazy feasibility of period *phi*; mutates *csys*.

    Returns ``(r, rounds, sweep)``: the host-normalised retiming (None
    when infeasible), the rounds used, and the final Δ sweep of ``r``.
    """
    n = cg.n
    is_mirror = cg.is_mirror
    sweep: KernelSweep | None = None
    with obs.span("minperiod.feas", phi=phi) as span:
        for rounds in range(1, MAX_LAZY_ROUNDS + 1):
            dist = csys.solve()
            if dist is None:
                obs.count("feas.passes", rounds)
                span.set(rounds=rounds, feasible=False)
                return None, rounds, None
            r = csys.normalized(dist)
            rg = r[:n]
            if sweep is None:
                sweep = delta_sweep(cg, rg)
            else:
                sweep = refresh(cg, sweep, rg)
            delta = sweep.delta
            added = False
            limit = phi + EPS
            for v in range(n):
                # mirrors are synthetic fanout vertices, not path ends
                if delta[v] <= limit or is_mirror[v]:
                    continue
                u = sweep.trace_start(v)
                # register-free path u ~> v: original weight = r(u) − r(v)
                bound = r[u] - r[v] - 1
                if csys.add(u, v, bound):
                    added = True
            if not added:
                obs.count("feas.passes", rounds)
                span.set(rounds=rounds, feasible=True)
                return r, rounds, sweep
    raise RuntimeError("lazy period-constraint generation did not converge")


def mirror_constraints(system: DifferenceSystem, csys: CompiledSystem) -> None:
    """Replay into *system* the constraints a lazy loop added to or
    tightened in *csys*, the compiled copy of *system*, tagged
    ``period``.  Insertion order carries over, so *system* iterates
    its constraints in the same order as *csys*."""
    names = csys.names
    for (u, v), slot in csys.pair.items():
        bound = csys.arc_b[slot]
        if system.bound(names[u], names[v]) != bound:
            system.add(names[u], names[v], bound, tag="period")


def period_infeasible(
    graph: RetimingGraph, phi: float, system: DifferenceSystem
) -> InfeasibleConstraints:
    """The structured error for an infeasible period *phi*, carrying a
    negative cycle of the over-constrained *system* as its certificate."""
    return InfeasibleConstraints(
        f"period {phi} infeasible for {graph.name!r}",
        system.negative_cycle() or (),
        period=phi,
    )


def check_period(
    graph: RetimingGraph,
    phi: float,
    system: DifferenceSystem,
) -> FeasibilityResult:
    """Lazy feasibility of period *phi*; mutates *system* (adds period
    constraints, which remain valid for any smaller φ probe as well).

    Note on Maheshwari–Sapatnekar bounds pruning (which the paper
    expects to compose with the class constraints): lazy generation gets
    it *for free* — a constraint implied by the class bounds can never
    be violated by a bounds-respecting solution, so this loop never even
    generates it.  The explicit prune lives in the dense formulation
    (:func:`repro.retime.dense.dense_period_system`), where constraints
    are materialised unconditionally.
    """
    cg = compile_graph(graph)
    csys = CompiledSystem.from_system(system, cg)
    r, rounds, sweep = _lazy_feasibility(cg, phi, csys)
    if rounds > 1:  # a first-round answer added nothing
        mirror_constraints(system, csys)
    if r is None:
        return FeasibilityResult(None, rounds, len(system))
    return FeasibilityResult(_named(csys, r), rounds, len(system), sweep.period)


def feasible_retiming(
    graph: RetimingGraph,
    phi: float,
    bounds: dict[str, tuple[int, int]] | None = None,
) -> dict[str, int] | None:
    """One-shot feasibility: a legal retiming with period ≤ φ, or None."""
    system = base_system(graph, bounds)
    return check_period(graph, phi, system).r


def infeasibility_certificate(
    graph: RetimingGraph,
    phi: float,
    bounds: dict[str, tuple[int, int]] | None = None,
):
    """Structured evidence that period *phi* is infeasible, or None.

    Re-runs the lazy feasibility check (the exceptional error path) and
    extracts the negative cycle from the resulting over-constrained
    system.  Returns an unraised
    :class:`~repro.retime.constraints.InfeasibleConstraints` ready for
    the caller to raise, or None when *phi* is feasible.
    """
    system = base_system(graph, bounds)
    if check_period(graph, phi, system).feasible:
        return None
    return period_infeasible(graph, phi, system)


def min_period(
    graph: RetimingGraph,
    bounds: dict[str, tuple[int, int]] | None = None,
    eps: float = 1e-6,
) -> MinPeriodResult:
    """Binary-search the minimum feasible clock period.

    Returns the best feasible (φ, r); φ is the period actually achieved
    by the returned retiming.  For graphs with integral delays the
    result is exact; for float delays it is within *eps*.
    """
    with obs.span("minperiod.search") as span:
        cg = compile_graph(graph)
        zero = [0] * cg.n
        start = delta_sweep(cg, zero).period
        lo = max(cg.delay, default=0.0)
        best_phi = start
        best_r = cg.r_dict(zero)
        probes = 0
        rounds = 0
        # a period constraint generated while probing φ1 remains valid for
        # every φ ≤ φ1 but can over-constrain larger φ probes, so each probe
        # starts from a fresh copy of the base system
        base = CompiledSystem.from_system(base_system(graph, bounds), cg)
        hi = start
        while hi - lo > eps:
            mid = (lo + hi) / 2.0
            probes += 1
            r, used, sweep = _lazy_feasibility(cg, mid, base.copy())
            rounds += used
            if r is not None:
                achieved = sweep.period
                best_phi = achieved
                best_r = _named(base, r)
                hi = min(achieved, mid)
            else:
                lo = mid
        obs.count("minperiod.probes", probes)
        obs.gauge("minperiod.phi", best_phi)
        span.set(phi=best_phi, probes=probes)
    return MinPeriodResult(
        phi=best_phi, r=best_r, achieved=best_phi, probes=probes, rounds=rounds
    )
