"""Dense (W/D-matrix) retiming solvers — the textbook formulation.

The production solvers in :mod:`repro.retime.minperiod` / ``minarea``
generate period constraints lazily; these variants materialise the full
Leiserson–Saxe constraint set

    r(u) − r(v) ≤ W(u, v) − 1      for every pair with D(u, v) > φ

from the all-pairs W/D matrices (paper Sec. 2).  Quadratic in |V| — fine
for the small/medium graphs the ablation study uses, hopeless for the
big designs, which is exactly the point the lazy path demonstrates.

Both variants must agree with the lazy solvers on the optimum; the test
suite enforces that, and ``tests/integration/test_ablations.py``
compares their constraint counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.retiming_graph import RetimingGraph
from ..kernels import CompiledSystem
from .constraints import InfeasibleError
from .feas import clock_period
from .minarea import AreaResult, lp_supply, solve_lp
from .minperiod import EPS, MinPeriodResult, _named, base_system
from .sharing_model import build_sharing_model, shared_register_count
from .wd import wd_matrices


def dense_period_system(
    graph: RetimingGraph,
    phi: float,
    bounds: dict[str, tuple[int, int]] | None = None,
    prune_with_bounds: bool = True,
    wd: tuple[dict, dict] | None = None,
) -> CompiledSystem:
    """Base system plus *all* period constraints for target φ.

    Pairs through synthetic vertices (mirrors) are excluded; the host is
    skipped as a path endpoint unless the graph models a combinational
    environment.

    ``prune_with_bounds`` applies the Maheshwari–Sapatnekar reduction
    the paper anticipates (Sec. 5.1, last paragraph): a constraint
    ``r(u) − r(v) ≤ W(u,v) − 1`` is vacuous — and skipped — whenever the
    lag ranges already guarantee ``r_max(u) − r_min(v) ≤ W(u,v) − 1``.
    The count of pruned constraints is recorded on the returned system
    as ``pruned_constraints``.
    """
    system = base_system(graph, bounds)
    W, D = wd or wd_matrices(graph)
    skip_kinds = {"mirror"}
    through_host = graph.combinational_host

    def lag_range(name: str) -> tuple[int, int] | None:
        if bounds is not None and name in bounds:
            return bounds[name]
        vertex = graph.vertices.get(name)
        if vertex is not None and not vertex.movable:
            return (0, 0)
        return None

    pruned = 0
    for (u, v), d in D.items():
        if d <= phi + EPS:
            continue
        if graph.vertices[u].kind in skip_kinds:
            continue
        if graph.vertices[v].kind in skip_kinds:
            continue
        if not through_host and (
            graph.vertices[u].kind == "host" or graph.vertices[v].kind == "host"
        ):
            continue
        bound = W[u, v] - 1
        if prune_with_bounds:
            range_u = lag_range(u)
            range_v = lag_range(v)
            if (
                range_u is not None
                and range_v is not None
                and range_u[1] - range_v[0] <= bound
            ):
                pruned += 1
                continue
        system.add_named(u, v, bound, "period-dense")
    system.pruned_constraints = pruned
    return system


def feasible_retiming_dense(
    graph: RetimingGraph,
    phi: float,
    bounds: dict[str, tuple[int, int]] | None = None,
    wd: tuple[dict, dict] | None = None,
) -> dict[str, int] | None:
    """One-shot dense feasibility check at period φ."""
    system = dense_period_system(graph, phi, bounds, wd=wd)
    dist = system.solve()
    if dist is None:
        return None
    r = _named(system, system.normalized(dist))
    # W/D-based constraints ignore paths through the host when the
    # environment is sequential; legality still guaranteed, but verify
    # the achieved period as a safety net
    if clock_period(graph, r) > phi + EPS:
        return None
    return r


def min_period_dense(
    graph: RetimingGraph,
    bounds: dict[str, tuple[int, int]] | None = None,
) -> MinPeriodResult:
    """Exact binary search over the D(u, v) candidate periods."""
    W, D = wd_matrices(graph)
    candidates = sorted(set(D.values()))
    zero = {v: 0 for v in graph.vertices}
    start = clock_period(graph)
    best_phi, best_r = start, zero
    lo, hi = 0, len(candidates) - 1
    probes = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        phi = candidates[mid]
        probes += 1
        r = feasible_retiming_dense(graph, phi, bounds, wd=(W, D))
        if r is not None:
            achieved = clock_period(graph, r)
            if achieved < best_phi:
                best_phi, best_r = achieved, r
            hi = mid - 1
        else:
            lo = mid + 1
    return MinPeriodResult(
        phi=best_phi, r=best_r, achieved=best_phi, probes=probes, rounds=probes
    )


def min_area_dense(
    graph: RetimingGraph,
    phi: float,
    bounds: dict[str, tuple[int, int]] | None = None,
) -> AreaResult:
    """Min-area with the full dense period-constraint set."""
    model = build_sharing_model(graph)
    system = dense_period_system(model.graph, phi, bounds)
    solved = solve_lp(system, lp_supply(system, model))
    if solved is None:
        raise InfeasibleError(f"period {phi} infeasible for {graph.name!r}")
    r = dict(zip(system.names, solved[0]))
    if clock_period(model.graph, r) > phi + EPS:
        raise InfeasibleError(
            f"dense constraint set missed a violating path at φ={phi}"
        )
    real_r = {v: r.get(v, 0) for v in graph.vertices}
    return AreaResult(
        r=real_r,
        registers=shared_register_count(graph, real_r),
        registers_before=shared_register_count(graph),
        period=clock_period(graph, real_r),
        rounds=1,
        constraints=len(system),
    )
