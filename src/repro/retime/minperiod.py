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
) -> CompiledSystem:
    """Circuit constraints + pinned vertices + class bounds.

    Every non-movable vertex (host, ports, control outputs) is pinned to
    the host's value; *bounds* maps vertex -> (r_min, r_max) relative to
    the host, encoded as the two host difference constraints of paper
    Sec. 5.1.  The system's variables are the graph's vertices, with
    the ids of :func:`~repro.kernels.compile_graph`.
    """
    return _base_system(compile_graph(graph), bounds)


def _base_system(
    cg: CompiledGraph, bounds: dict[str, tuple[int, int]] | None
) -> CompiledSystem:
    """:func:`base_system` over an already compiled graph."""
    system = CompiledSystem(cg.names, cg.index)
    add = system.add
    for u, v, w in zip(cg.eu, cg.ev, cg.ew):
        add(u, v, w, "circuit")
    names = cg.names
    for i in range(cg.n):
        if i != cg.host and not cg.movable[i]:
            system.add_named(names[i], HOST, 0, "pin")
            system.add_named(HOST, names[i], 0, "pin")
    for name, (lo, hi) in (bounds or {}).items():
        system.add_named(name, HOST, hi, "class")
        system.add_named(HOST, name, -lo, "class")
    return system


def _named(csys: CompiledSystem, r: list[int]) -> dict[str, int]:
    """Name-keyed view of a solution, in variable declaration order."""
    names = csys.names
    return {names[i]: r[i] for i in range(len(r))}


def add_period_constraints(
    cg: CompiledGraph,
    csys: CompiledSystem,
    sweep: KernelSweep,
    r: list[int],
    phi: float,
    paths: dict[tuple[int, int], list[int]] | None = None,
) -> bool:
    """Constrain every register-free path longer than *phi*.

    For each vertex v (by id) whose Δ exceeds *phi*, the critical
    path u ~> v of *sweep* (Δ at retiming *r*) must carry a register:
    ``r(u) − r(v) ≤ w(p) − 1``, tagged ``period``.  Returns True iff a
    constraint was added or tightened.  *paths*, when given, receives
    the gate path (vertex ids, u first) of each such constraint.
    """
    delta = sweep.delta
    is_mirror = cg.is_mirror
    limit = phi + EPS
    added = False
    for v in range(cg.n):
        # mirrors are synthetic fanout vertices, not path ends
        if delta[v] <= limit or is_mirror[v]:
            continue
        u = sweep.trace_start(v)
        # register-free path u ~> v: original weight = r(u) − r(v)
        if csys.add(u, v, r[u] - r[v] - 1, "period"):
            added = True
            if paths is not None:
                paths[u, v] = sweep.path(v)
    return added


def _lazy_feasibility(
    cg: CompiledGraph,
    phi: float,
    csys: CompiledSystem,
    paths: dict[tuple[int, int], list[int]] | None = None,
) -> tuple[list[int] | None, int, KernelSweep | None]:
    """Lazy feasibility of period *phi*; mutates *csys*.

    Returns ``(r, rounds, sweep)``: the host-normalised retiming (None
    when infeasible), the rounds used, and the final Δ sweep of ``r``.
    *paths* is passed on to :func:`add_period_constraints`.
    """
    n = cg.n
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
            if not add_period_constraints(cg, csys, sweep, r, phi, paths):
                obs.count("feas.passes", rounds)
                span.set(rounds=rounds, feasible=True)
                return r, rounds, sweep
    raise RuntimeError("lazy period-constraint generation did not converge")


def check_period(
    graph: RetimingGraph,
    phi: float,
    system: CompiledSystem,
) -> FeasibilityResult:
    """Lazy feasibility of period *phi*; mutates *system* (adds period
    constraints, which remain valid for any smaller φ probe as well).

    *system* is :func:`base_system` of *graph* (or a system grown from
    it).  When *phi* is infeasible, ``system.negative_cycle()`` is the
    certificate.

    Note on Maheshwari–Sapatnekar bounds pruning (which the paper
    expects to compose with the class constraints): lazy generation gets
    it *for free* — a constraint implied by the class bounds can never
    be violated by a bounds-respecting solution, so this loop never even
    generates it.  The explicit prune lives in the dense formulation
    (:func:`repro.retime.dense.dense_period_system`), where constraints
    are materialised unconditionally.
    """
    r, rounds, sweep = _lazy_feasibility(compile_graph(graph), phi, system)
    if r is None:
        return FeasibilityResult(None, rounds, len(system))
    return FeasibilityResult(_named(system, r), rounds, len(system), sweep.period)


def feasible_retiming(
    graph: RetimingGraph,
    phi: float,
    bounds: dict[str, tuple[int, int]] | None = None,
) -> dict[str, int] | None:
    """One-shot feasibility: a legal retiming with period ≤ φ, or None."""
    return check_period(graph, phi, base_system(graph, bounds)).r


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
        base = _base_system(cg, bounds)
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
